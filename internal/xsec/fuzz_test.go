package xsec

import (
	"bytes"
	"crypto/ed25519"
	"encoding/base64"
	"errors"
	"testing"
	"time"
)

// detCert issues a certificate with a key derived from seed, signed by
// signer, so fuzz workers in separate processes agree on every token.
func detCert(seed byte, kind CertKind, subject, issuer string, nb, na time.Time, signer ed25519.PrivateKey) (Certificate, ed25519.PrivateKey) {
	key := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{seed}, ed25519.SeedSize))
	c := Certificate{
		Serial:    string('a' + rune(seed)),
		Kind:      kind,
		Subject:   subject,
		Issuer:    issuer,
		NotBefore: nb,
		NotAfter:  na,
		PublicKey: key.Public().(ed25519.PublicKey),
	}
	if signer == nil {
		signer = key
	}
	c.Signature = ed25519.Sign(signer, c.tbs())
	return c, key
}

// FuzzVerifyToken checks VerifyToken against the uncached reference,
// DecodeSigned followed by Verify, on a cold memo and then on a warm
// one at a skewed instant: same identity, same error.
func FuzzVerifyToken(f *testing.F) {
	year := 365 * 24 * time.Hour
	ca, caKey := detCert(1, KindCA, "/O=Repro/CN=FuzzCA", "/O=Repro/CN=FuzzCA", t0, t0.Add(10*year), nil)
	user, userKey := detCert(2, KindUser, "/O=Repro/CN=alice", ca.Subject, t0, t0.Add(year), caKey)
	proxy, proxyKey := detCert(3, KindProxy, user.Subject+"/CN=proxy", user.Subject, t0, t0.Add(12*time.Hour), userKey)
	pp, ppKey := detCert(4, KindProxy, proxy.Subject+"/CN=proxy", proxy.Subject, t0, t0.Add(time.Hour), proxyKey)
	stale, staleKey := detCert(5, KindProxy, user.Subject+"/CN=proxy", user.Subject, t0, t0.Add(30*time.Second), userKey)
	rogueCA, rogueKey := detCert(6, KindCA, "/O=Repro/CN=Rogue", "/O=Repro/CN=Rogue", t0, t0.Add(year), nil)
	mallory, malloryKey := detCert(7, KindUser, "/O=Repro/CN=mallory", rogueCA.Subject, t0, t0.Add(year), rogueKey)
	shortKey := proxy
	shortKey.PublicKey = shortKey.PublicKey[:7]

	creds := []*Credential{
		{Chain: []Certificate{user}, Key: userKey},
		{Chain: []Certificate{proxy, user}, Key: proxyKey},
		{Chain: []Certificate{pp, proxy, user}, Key: ppKey},
		{Chain: []Certificate{stale, user}, Key: staleKey},
		{Chain: []Certificate{mallory}, Key: malloryKey},
		{Chain: []Certificate{proxy, user, ca}, Key: proxyKey},
		{Chain: []Certificate{shortKey, user}, Key: proxyKey},
		{Chain: []Certificate{pp, user}, Key: ppKey},
	}
	msg := []byte("submit job 42")
	for _, cred := range creds {
		tok := tokenFor(f, cred, msg)
		f.Add(tok, msg, int64(0))
		f.Add(tok, []byte("submit job 43"), int64(time.Hour))
		f.Add(tok, msg, int64(13*time.Hour))
		raw, _ := base64.StdEncoding.DecodeString(tok)
		raw[len(raw)/2] ^= 0x01
		f.Add(base64.StdEncoding.EncodeToString(raw), msg, int64(0))
	}
	f.Add("", msg, int64(0))
	f.Add(base64.StdEncoding.EncodeToString([]byte(`{"signature":""}`)), msg, int64(0))
	f.Add(base64.StdEncoding.EncodeToString([]byte(`{"chain":null}`)), msg, int64(0))

	at := t0.Add(time.Minute)
	f.Fuzz(func(t *testing.T, tok string, msg []byte, skew int64) {
		ref := NewTrustStore(ca)
		memo := NewTrustStore(ca)
		same := func(when time.Time) {
			wantID, wantErr := reference(ref, tok, msg, when)
			gotID, gotErr := memo.VerifyToken(tok, msg, when)
			if gotID != wantID || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("at %v: VerifyToken = %q, %v; reference = %q, %v", when, gotID, gotErr, wantID, wantErr)
			}
			if gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("at %v: error %q, reference %q", when, gotErr, wantErr)
			}
			for _, sentinel := range []error{ErrExpired, ErrBadSignature, ErrUntrusted, ErrNotCA,
				ErrProxyRule, ErrEmptyChain, ErrProxyTooDeep, ErrProxyOutlives} {
				if errors.Is(gotErr, sentinel) != errors.Is(wantErr, sentinel) {
					t.Fatalf("at %v: errors.Is(%v) differs: %v vs %v", when, sentinel, gotErr, wantErr)
				}
			}
		}
		same(at)                              // cold
		same(at)                              // warm if it verified
		same(at.Add(time.Duration(skew)))     // warm, possibly outside the window
		same(at.Add(time.Duration(skew) / 2)) // inside the window if skew's end is
	})
}
