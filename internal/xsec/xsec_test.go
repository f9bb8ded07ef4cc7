package xsec

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2010, 6, 1, 0, 0, 0, 0, time.UTC)

func newCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("TestCA", t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func newUser(t *testing.T, ca *CA, cn string) *Credential {
	t.Helper()
	cred, err := ca.IssueUser(cn, t0, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return cred
}

func TestUserChainVerifies(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(alice.Chain, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", id)
	}
}

func TestProxyChainVerifies(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, err := alice.Delegate(t0, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	id, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("proxy should speak for alice, got %q", id)
	}
	if proxy.Leaf().Kind != KindProxy {
		t.Fatal("leaf not a proxy")
	}
}

func TestNestedDelegation(t *testing.T) {
	ca := newCA(t)
	cred := newUser(t, ca, "bob")
	ts := NewTrustStore(ca.Cert)
	for i := 0; i < 3; i++ {
		next, err := cred.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatalf("delegation %d: %v", i, err)
		}
		cred = next
	}
	if len(cred.Chain) != 4 {
		t.Fatalf("chain length %d, want 4", len(cred.Chain))
	}
	if id, err := ts.VerifyChain(cred.Chain, t0.Add(time.Minute)); err != nil || id != "/O=Repro/CN=bob" {
		t.Fatalf("nested chain: id=%q err=%v", id, err)
	}
}

func TestDelegationDepthLimit(t *testing.T) {
	ca := newCA(t)
	cred := newUser(t, ca, "deep")
	var err error
	for i := 0; i < MaxProxyDepth; i++ {
		cred, err = cred.Delegate(t0, time.Hour)
		if err != nil {
			t.Fatalf("delegation %d failed early: %v", i, err)
		}
	}
	if _, err = cred.Delegate(t0, time.Hour); !errors.Is(err, ErrProxyTooDeep) {
		t.Fatalf("expected depth error, got %v", err)
	}
}

func TestExpiredCertRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	ts := NewTrustStore(ca.Cert)
	late := t0.Add(2 * 365 * 24 * time.Hour)
	if _, err := ts.VerifyChain(alice.Chain, late); !errors.Is(err, ErrExpired) {
		t.Fatalf("expected expiry error, got %v", err)
	}
	early := t0.Add(-time.Hour)
	if _, err := ts.VerifyChain(alice.Chain, early); !errors.Is(err, ErrExpired) {
		t.Fatalf("expected not-yet-valid error, got %v", err)
	}
}

func TestProxyLifetimeClippedToSigner(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice") // valid 1 year
	proxy, err := alice.Delegate(t0, 10*365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Leaf().NotAfter.After(alice.Leaf().NotAfter) {
		t.Fatal("proxy outlives signer despite clipping")
	}
}

func TestTamperedProxyLifetimeRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	// Forge a longer lifetime without re-signing.
	proxy.Chain[0].NotAfter = alice.Leaf().NotAfter.Add(24 * time.Hour)
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(proxy.Chain, t0.Add(time.Minute)); err == nil {
		t.Fatal("tampered proxy accepted")
	}
}

func TestUntrustedCARejected(t *testing.T) {
	ca := newCA(t)
	other, _ := NewCA("Rogue", t0, 24*time.Hour)
	mallory := newUser(t, other, "mallory")
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(mallory.Chain, t0.Add(time.Minute)); !errors.Is(err, ErrUntrusted) {
		t.Fatalf("expected untrusted error, got %v", err)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	alice.Chain[0].Subject = "/O=Repro/CN=root" // tamper
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(alice.Chain, t0.Add(time.Minute)); err == nil {
		t.Fatal("tampered certificate accepted")
	}
}

func TestEmptyChain(t *testing.T) {
	ts := NewTrustStore()
	if _, err := ts.VerifyChain(nil, t0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
	var c Credential
	if _, err := c.Sign([]byte("x")); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
	if _, err := c.Delegate(t0, time.Hour); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("got %v", err)
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	ts := NewTrustStore(ca.Cert)
	msg := []byte("submit job 42")
	tok, err := proxy.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := ts.Verify(msg, tok, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if id != "/O=Repro/CN=alice" {
		t.Fatalf("id %q", id)
	}
	if _, err := ts.Verify([]byte("submit job 43"), tok, t0.Add(time.Minute)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("altered message accepted: %v", err)
	}
	if _, err := ts.Verify(msg, nil, t0); !errors.Is(err, ErrEmptyChain) {
		t.Fatalf("nil token: %v", err)
	}
}

func TestSignedTokenWireRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	tok, _ := alice.Sign([]byte("payload"))
	enc, err := EncodeSigned(tok)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSigned(enc)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.Verify([]byte("payload"), dec, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeSignedGarbage(t *testing.T) {
	if _, err := DecodeSigned("!!not-base64!!"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeSigned("aGVsbG8="); err == nil { // valid b64, bad JSON
		t.Fatal("non-JSON accepted")
	}
}

func TestCredentialMarshalRoundTrip(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	b, err := proxy.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCredential(b)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(got.Chain, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	// The decoded key must still sign verifiably.
	tok, err := got.Sign([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Verify([]byte("m"), tok, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityHelper(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, _ := alice.Delegate(t0, time.Hour)
	if got := Identity(proxy.Chain); got != "/O=Repro/CN=alice" {
		t.Fatalf("identity %q", got)
	}
	if got := Identity(nil); got != "" {
		t.Fatalf("empty identity %q", got)
	}
}

func TestKindString(t *testing.T) {
	if KindCA.String() != "ca" || KindUser.String() != "user" || KindProxy.String() != "proxy" {
		t.Fatal("kind names wrong")
	}
	if CertKind(7).String() != "kind(7)" {
		t.Fatal("unknown kind formatting")
	}
}

// Property: any message signed by a freshly delegated proxy verifies, and
// any single-byte mutation of the message does not.
func TestPropertySignedMessageIntegrity(t *testing.T) {
	ca := newCA(t)
	alice := newUser(t, ca, "alice")
	proxy, err := alice.Delegate(t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	at := t0.Add(time.Minute)
	f := func(msg []byte, flip uint16) bool {
		tok, err := proxy.Sign(msg)
		if err != nil {
			return false
		}
		if _, err := ts.Verify(msg, tok, at); err != nil {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		mut := append([]byte(nil), msg...)
		mut[int(flip)%len(mut)] ^= 0xFF
		_, err = ts.Verify(mut, tok, at)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
