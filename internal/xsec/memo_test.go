package xsec

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// tokenFor signs msg with cred and encodes the token for the wire.
func tokenFor(t testing.TB, cred *Credential, msg []byte) string {
	t.Helper()
	s, err := cred.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := EncodeSigned(s)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// reference is the uncached answer VerifyToken must reproduce.
func reference(ts *TrustStore, tok string, msg []byte, at time.Time) (string, error) {
	s, err := DecodeSigned(tok)
	if err != nil {
		return "", err
	}
	return ts.Verify(msg, s, at)
}

func (ts *TrustStore) memoLen() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return len(ts.memo)
}

func TestVerifyTokenWalksChainOnce(t *testing.T) {
	ca := newCA(t)
	proxy, _ := newUser(t, ca, "alice").Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("request %d", i))
		id, err := ts.VerifyToken(tokenFor(t, proxy, msg), msg, at)
		if err != nil || id != "/O=Repro/CN=alice" {
			t.Fatalf("request %d: id=%q err=%v", i, id, err)
		}
	}
	if n := ts.walks.Load(); n != 1 {
		t.Fatalf("5 requests walked the chain %d times, want 1", n)
	}
}

// A warm hit outside the memoised window must fail exactly as a cold
// verification does: same error, same text.
func TestVerifyTokenWarmExpiryMatchesCold(t *testing.T) {
	shortCA, err := NewCA("ShortCA", t0, 2*time.Hour) // expires before its user
	if err != nil {
		t.Fatal(err)
	}
	longCA := newCA(t)
	user := newUser(t, longCA, "alice")
	late, _ := user.Delegate(t0.Add(10*time.Minute), time.Hour) // latest NotBefore
	deep, _ := late.Delegate(t0.Add(5*time.Minute), 30*time.Minute)
	shortUser, _ := shortCA.IssueUser("bob", t0, 365*24*time.Hour)
	cases := []struct {
		name  string
		cred  *Credential
		root  Certificate
		inner time.Time
		outer time.Time
	}{
		{"past earliest NotAfter", deep, longCA.Cert, t0.Add(20 * time.Minute), deep.Leaf().NotAfter.Add(time.Nanosecond)},
		{"before latest NotBefore", deep, longCA.Cert, t0.Add(20 * time.Minute), late.Leaf().NotBefore.Add(-time.Nanosecond)},
		{"past root NotAfter", shortUser, shortCA.Cert, t0.Add(time.Hour), shortCA.Cert.NotAfter.Add(time.Nanosecond)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := []byte("submit")
			tok := tokenFor(t, c.cred, msg)
			warm := NewTrustStore(c.root)
			if _, err := warm.VerifyToken(tok, msg, c.inner); err != nil {
				t.Fatal(err)
			}
			_, got := warm.VerifyToken(tok, msg, c.outer)
			_, want := NewTrustStore(c.root).VerifyToken(tok, msg, c.outer)
			if !errors.Is(got, ErrExpired) || got.Error() != want.Error() {
				t.Fatalf("warm error %v, cold error %v", got, want)
			}
			if _, ref := reference(NewTrustStore(c.root), tok, msg, c.outer); ref.Error() != got.Error() {
				t.Fatalf("warm error %v, reference error %v", got, ref)
			}
		})
	}
}

func TestVerifyTokenHitChecksMessage(t *testing.T) {
	ca := newCA(t)
	proxy, _ := newUser(t, ca, "alice").Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	tok := tokenFor(t, proxy, []byte("job 42"))
	if _, err := ts.VerifyToken(tok, []byte("job 42"), at); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.VerifyToken(tok, []byte("job 43"), at); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("altered message on a hit: %v", err)
	}
	if n := ts.walks.Load(); n != 1 {
		t.Fatalf("walks = %d, want 1 (the second call must be a hit)", n)
	}
}

func TestVerifyTokenResignedChainMisses(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	msg := []byte("m")
	if _, err := ts.VerifyToken(tokenFor(t, proxy, msg), msg, at); err != nil {
		t.Fatal(err)
	}
	// The same proxy certificate signed by a key that is not alice's:
	// only the signature bytes of the chain differ.
	rogue := newUser(t, ca, "mallory")
	forged := *proxy
	forged.Chain = append([]Certificate(nil), proxy.Chain...)
	forged.Chain[0].Signature = ed25519.Sign(rogue.Key, forged.Chain[0].tbs())
	if _, err := ts.VerifyToken(tokenFor(t, &forged, msg), msg, at); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("re-signed chain: %v", err)
	}
	if n := ts.walks.Load(); n != 2 {
		t.Fatalf("walks = %d, want 2 (the forged chain must miss)", n)
	}
	// Failures are not memoised: the forged chain is walked again.
	_, _ = ts.VerifyToken(tokenFor(t, &forged, msg), msg, at)
	if n := ts.walks.Load(); n != 3 {
		t.Fatalf("walks = %d, want 3 (failures must not be memoised)", n)
	}
}

func TestAddReplacingRootForgetsMemo(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	msg := []byte("m")
	tok := tokenFor(t, alice, msg)
	if _, err := ts.VerifyToken(tok, msg, at); err != nil {
		t.Fatal(err)
	}
	rekeyed := newCA(t) // same subject "/O=Repro/CN=TestCA", new key
	if rekeyed.Cert.Subject != ca.Cert.Subject {
		t.Fatal("fixture: subjects differ")
	}
	ts.Add(rekeyed.Cert)
	if _, err := ts.VerifyToken(tok, msg, at); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("token cached under the old root still accepted: %v", err)
	}
}

func TestMemoBounded(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	msg := []byte("m")
	at := t0.Add(time.Minute)
	for i := 0; i < memoCap+40; i++ {
		proxy, err := alice.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ts.VerifyToken(tokenFor(t, proxy, msg), msg, at); err != nil {
			t.Fatal(err)
		}
		if n := ts.memoLen(); n > memoCap {
			t.Fatalf("memo holds %d entries after %d chains, bound %d", n, i+1, memoCap)
		}
	}
	// A full memo whose entries have all expired is emptied before the
	// next insert, not thinned one entry at a time.
	later := t0.Add(2 * time.Hour)
	proxy, _ := alice.Delegate(later, time.Hour)
	if _, err := ts.VerifyToken(tokenFor(t, proxy, msg), msg, later.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if n := ts.memoLen(); n != 1 {
		t.Fatalf("memo holds %d entries, want only the live one", n)
	}
}

func TestVerifyTokenConcurrent(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	var creds []*Credential
	for i := 0; i < 4; i++ {
		p, _ := alice.Delegate(t0, time.Hour)
		creds = append(creds, p)
	}
	const rounds = 50
	msgs := make([][]byte, rounds)
	toks := make([][]string, len(creds))
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("request %d", i))
	}
	for c, cred := range creds {
		for _, msg := range msgs {
			toks[c] = append(toks[c], tokenFor(t, cred, msg))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tok := toks[(g+i)%len(creds)][i]
				if id, err := ts.VerifyToken(tok, msgs[i], at); err != nil || id != "/O=Repro/CN=alice" {
					errs <- fmt.Errorf("goroutine %d request %d: id=%q err=%v", g, i, id, err)
					return
				}
				if g == 0 && i%10 == 0 {
					ts.Add(ca.Cert) // root churn clears the memo under readers
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Chain keys arrive from the network: a malformed one is a bad
// signature, never an ed25519 panic.
func TestMalformedKeyRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	msg := []byte("m")

	shortParent := *proxy
	shortParent.Chain = append([]Certificate(nil), proxy.Chain...)
	shortParent.Chain[1].PublicKey = shortParent.Chain[1].PublicKey[:7]
	if _, err := ts.VerifyChain(shortParent.Chain, at); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("short signer key: %v", err)
	}

	// The leaf key only signs the request, so the chain itself verifies.
	shortLeaf := *proxy
	shortLeaf.Chain = append([]Certificate(nil), proxy.Chain...)
	shortLeaf.Chain[0].PublicKey = shortLeaf.Chain[0].PublicKey[:7]
	shortLeaf.Chain[0].Signature = ed25519.Sign(alice.Key, shortLeaf.Chain[0].tbs())
	tok := tokenFor(t, &shortLeaf, msg)
	for i := 0; i < 2; i++ { // cold, then warm
		if _, err := ts.VerifyToken(tok, msg, at); !errors.Is(err, ErrBadSignature) {
			t.Fatalf("short leaf key, call %d: %v", i, err)
		}
	}
}
