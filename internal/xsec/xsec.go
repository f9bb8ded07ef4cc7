// Package xsec implements the Grid security substrate the paper relies
// on: X.509-style identity certificates, limited proxy certificates with
// delegation chains (the Globus GSI model), and message signing. A
// production Grid "is normally accessed with strict secure interface, for
// example, with x.509 Certificates and Proxies" (paper §II-B); every
// authenticated protocol in this repository (MyProxy, GRAM, GridFTP, the
// Cyberaide agent) carries these credentials.
//
// The implementation is a faithful miniature rather than RFC 5280: Ed25519
// keys, canonical-JSON signing, and the GSI proxy rules that matter for
// behaviour (proxies are signed by the end-entity they extend, cannot
// outlive their signer, and have bounded delegation depth).
package xsec

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by chain verification.
var (
	ErrExpired       = errors.New("xsec: certificate expired or not yet valid")
	ErrBadSignature  = errors.New("xsec: bad signature")
	ErrUntrusted     = errors.New("xsec: chain does not terminate at a trusted CA")
	ErrNotCA         = errors.New("xsec: issuer is not a CA")
	ErrProxyRule     = errors.New("xsec: proxy certificate violates delegation rules")
	ErrEmptyChain    = errors.New("xsec: empty chain")
	ErrProxyTooDeep  = errors.New("xsec: proxy delegation depth exceeded")
	ErrProxyOutlives = errors.New("xsec: proxy outlives its signer")
)

// MaxProxyDepth bounds delegation chains, as GSI deployments do.
const MaxProxyDepth = 8

// CertKind distinguishes the three certificate roles.
type CertKind int

// Certificate roles.
const (
	KindCA CertKind = iota
	KindUser
	KindProxy
)

// String names the kind.
func (k CertKind) String() string {
	switch k {
	case KindCA:
		return "ca"
	case KindUser:
		return "user"
	case KindProxy:
		return "proxy"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Certificate is the signed public statement binding a subject name to a
// public key.
type Certificate struct {
	Serial    string            `json:"serial"`
	Kind      CertKind          `json:"kind"`
	Subject   string            `json:"subject"` // e.g. "/O=Repro/CN=alice"
	Issuer    string            `json:"issuer"`
	NotBefore time.Time         `json:"not_before"`
	NotAfter  time.Time         `json:"not_after"`
	PublicKey ed25519.PublicKey `json:"public_key"`
	Signature []byte            `json:"signature"`
}

// tbs returns the canonical to-be-signed encoding (everything except the
// signature). Field order is fixed by the struct, so JSON is canonical.
func (c *Certificate) tbs() []byte {
	cp := *c
	cp.Signature = nil
	b, err := json.Marshal(&cp)
	if err != nil {
		// Marshalling a plain struct of scalars cannot fail.
		panic("xsec: tbs marshal: " + err.Error())
	}
	return b
}

// ValidAt reports whether the validity window covers at.
func (c *Certificate) ValidAt(at time.Time) bool {
	return !at.Before(c.NotBefore) && !at.After(c.NotAfter)
}

// Credential is a certificate chain plus the private key for its leaf.
// For a user credential the chain is [user]. For a proxy it is
// [proxy, ..., user] — leaf first, exactly as transmitted on the wire.
type Credential struct {
	Chain []Certificate      `json:"chain"`
	Key   ed25519.PrivateKey `json:"key"`
}

// Leaf returns the end of the chain the private key belongs to.
func (c *Credential) Leaf() *Certificate {
	if len(c.Chain) == 0 {
		return nil
	}
	return &c.Chain[0]
}

// Subject returns the leaf subject, or "" for an empty credential.
func (c *Credential) Subject() string {
	if l := c.Leaf(); l != nil {
		return l.Subject
	}
	return ""
}

// Identity returns the end-entity (user) subject a chain speaks for: the
// subject of the first non-proxy certificate.
func Identity(chain []Certificate) string {
	for i := range chain {
		if chain[i].Kind != KindProxy {
			return chain[i].Subject
		}
	}
	if len(chain) > 0 {
		return strings.SplitN(chain[0].Subject, "/CN=proxy", 2)[0]
	}
	return ""
}

// CA is a certificate authority able to issue user certificates.
type CA struct {
	Cert Certificate
	key  ed25519.PrivateKey
}

// NewCA creates a self-signed authority named name, valid for validity.
func NewCA(name string, now time.Time, validity time.Duration) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate CA key: %w", err)
	}
	subject := "/O=Repro/CN=" + name
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindCA,
		Subject:   subject,
		Issuer:    subject,
		NotBefore: now,
		NotAfter:  now.Add(validity),
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(priv, cert.tbs())
	return &CA{Cert: cert, key: priv}, nil
}

// IssueUser issues an end-entity certificate for cn.
func (ca *CA) IssueUser(cn string, now time.Time, validity time.Duration) (*Credential, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate user key: %w", err)
	}
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindUser,
		Subject:   "/O=Repro/CN=" + cn,
		Issuer:    ca.Cert.Subject,
		NotBefore: now,
		NotAfter:  now.Add(validity),
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(ca.key, cert.tbs())
	return &Credential{Chain: []Certificate{cert}, Key: priv}, nil
}

// Delegate creates a proxy credential signed by c's private key. The
// proxy's lifetime is clipped to its signer's (GSI rule: a proxy cannot
// outlive the credential that signed it).
func (c *Credential) Delegate(now time.Time, validity time.Duration) (*Credential, error) {
	leaf := c.Leaf()
	if leaf == nil {
		return nil, ErrEmptyChain
	}
	if depth := proxyDepth(c.Chain); depth >= MaxProxyDepth {
		return nil, ErrProxyTooDeep
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xsec: generate proxy key: %w", err)
	}
	notAfter := now.Add(validity)
	if notAfter.After(leaf.NotAfter) {
		notAfter = leaf.NotAfter
	}
	cert := Certificate{
		Serial:    newSerial(),
		Kind:      KindProxy,
		Subject:   leaf.Subject + "/CN=proxy",
		Issuer:    leaf.Subject,
		NotBefore: now,
		NotAfter:  notAfter,
		PublicKey: pub,
	}
	cert.Signature = ed25519.Sign(c.Key, cert.tbs())
	chain := append([]Certificate{cert}, c.Chain...)
	return &Credential{Chain: chain, Key: priv}, nil
}

func proxyDepth(chain []Certificate) int {
	n := 0
	for i := range chain {
		if chain[i].Kind == KindProxy {
			n++
		}
	}
	return n
}

// memoCap bounds the verified-chain memo of a TrustStore. A session's
// chain is one entry for the proxy's lifetime, so the bound only has to
// cover the sessions in flight at once.
const memoCap = 256

// TrustStore holds the CA certificates a verifier accepts, plus a
// bounded memo of chains VerifyToken has already verified. It is safe
// for concurrent use.
type TrustStore struct {
	mu    sync.RWMutex
	roots map[string]Certificate // by subject
	memo  map[[sha256.Size]byte]memoEntry
	// gen counts Add calls; a verification that started under an older
	// generation is not memoised.
	gen uint64
	// walks counts full chain walks (VerifyChain calls), for tests.
	walks atomic.Int64
}

// memoEntry is what a successful chain verification leaves behind: the
// leaf key that signs each request, the identity, and the window in
// which every certificate the verification looked at is valid.
type memoEntry struct {
	leaf                ed25519.PublicKey
	identity            string
	notBefore, notAfter time.Time
}

// NewTrustStore builds a store from root certificates.
func NewTrustStore(roots ...Certificate) *TrustStore {
	ts := &TrustStore{
		roots: make(map[string]Certificate, len(roots)),
		memo:  make(map[[sha256.Size]byte]memoEntry),
	}
	for _, r := range roots {
		ts.roots[r.Subject] = r
	}
	return ts
}

// Add registers another trusted root. Replacing a root can invalidate
// a memoised verification, so Add forgets them all.
func (ts *TrustStore) Add(root Certificate) {
	ts.mu.Lock()
	ts.roots[root.Subject] = root
	clear(ts.memo)
	ts.gen++
	ts.mu.Unlock()
}

func (ts *TrustStore) root(subject string) (Certificate, bool) {
	ts.mu.RLock()
	r, ok := ts.roots[subject]
	ts.mu.RUnlock()
	return r, ok
}

// verifySig is ed25519.Verify without its panic on a malformed key:
// chain keys arrive from the network.
func verifySig(pub ed25519.PublicKey, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// VerifyChain checks a leaf-first chain at instant at: every signature,
// every validity window, the proxy delegation rules, and that the chain
// terminates at a trusted CA. On success it returns the end-entity
// identity the chain speaks for.
func (ts *TrustStore) VerifyChain(chain []Certificate, at time.Time) (string, error) {
	ts.walks.Add(1)
	if len(chain) == 0 {
		return "", ErrEmptyChain
	}
	if d := proxyDepth(chain); d > MaxProxyDepth {
		return "", ErrProxyTooDeep
	}
	for i := range chain {
		cert := &chain[i]
		if !cert.ValidAt(at) {
			return "", fmt.Errorf("%w: %s [%s..%s] at %s", ErrExpired,
				cert.Subject, cert.NotBefore.Format(time.RFC3339),
				cert.NotAfter.Format(time.RFC3339), at.Format(time.RFC3339))
		}
		if i+1 < len(chain) {
			parent := &chain[i+1]
			if !verifySig(parent.PublicKey, cert.tbs(), cert.Signature) {
				return "", fmt.Errorf("%w: %s not signed by %s", ErrBadSignature, cert.Subject, parent.Subject)
			}
			if cert.Issuer != parent.Subject {
				return "", fmt.Errorf("%w: issuer %q != parent subject %q", ErrBadSignature, cert.Issuer, parent.Subject)
			}
			switch cert.Kind {
			case KindProxy:
				// A proxy is signed by the credential it extends (user or
				// another proxy), never directly by a CA.
				if parent.Kind == KindCA {
					return "", fmt.Errorf("%w: proxy signed by CA", ErrProxyRule)
				}
				if cert.NotAfter.After(parent.NotAfter) {
					return "", ErrProxyOutlives
				}
				if !strings.HasPrefix(cert.Subject, parent.Subject) {
					return "", fmt.Errorf("%w: proxy subject %q does not extend %q", ErrProxyRule, cert.Subject, parent.Subject)
				}
			case KindUser:
				if parent.Kind != KindCA {
					return "", fmt.Errorf("%w: user certificate issued by %s", ErrNotCA, parent.Kind)
				}
			case KindCA:
				return "", fmt.Errorf("%w: CA certificate inside chain", ErrProxyRule)
			}
		}
	}
	// The last element must be anchored at a trusted root: either it is a
	// trusted CA cert itself, or (the common wire form) it is an end-entity
	// cert whose issuer we trust.
	last := &chain[len(chain)-1]
	if last.Kind == KindCA {
		root, ok := ts.root(last.Subject)
		if !ok || !sameCert(&root, last) {
			return "", ErrUntrusted
		}
	} else {
		root, ok := ts.root(last.Issuer)
		if !ok {
			return "", ErrUntrusted
		}
		if !verifySig(root.PublicKey, last.tbs(), last.Signature) {
			return "", fmt.Errorf("%w: %s not signed by trusted root", ErrBadSignature, last.Subject)
		}
		if !root.ValidAt(at) {
			return "", fmt.Errorf("%w: trusted root %s", ErrExpired, root.Subject)
		}
	}
	return Identity(chain), nil
}

func sameCert(a, b *Certificate) bool {
	return a.Serial == b.Serial && string(a.Signature) == string(b.Signature)
}

// Signed is a detached signature over an arbitrary message, carrying the
// chain that authenticates the signer. This is how GRAM/GridFTP/agent
// requests are authenticated.
type Signed struct {
	Chain     []Certificate `json:"chain"`
	Signature []byte        `json:"signature"`
}

// Sign produces a Signed token over msg with c's key.
func (c *Credential) Sign(msg []byte) (*Signed, error) {
	if c.Leaf() == nil {
		return nil, ErrEmptyChain
	}
	h := sha256.Sum256(msg)
	return &Signed{
		Chain:     c.Chain,
		Signature: ed25519.Sign(c.Key, h[:]),
	}, nil
}

// Verify checks the token authenticates msg under ts at instant at and
// returns the end-entity identity.
func (ts *TrustStore) Verify(msg []byte, s *Signed, at time.Time) (string, error) {
	if s == nil || len(s.Chain) == 0 {
		return "", ErrEmptyChain
	}
	id, err := ts.VerifyChain(s.Chain, at)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(msg)
	if !verifySig(s.Chain[0].PublicKey, h[:], s.Signature) {
		return "", ErrBadSignature
	}
	return id, nil
}

// VerifyToken authenticates msg under an EncodeSigned token at instant
// at and returns the end-entity identity: the same answer as
// DecodeSigned followed by Verify, without walking a chain again that
// already verified. The memo is keyed by the SHA-256 of the token's
// exact chain bytes and holds the leaf key, the identity and the
// window in which every certificate checked (the trusted root included)
// is valid. Outside that window the chain is walked afresh, so expiry
// reports the same error as a cold verification; the request signature
// is checked against the leaf key every time, and failures are never
// memoised.
func (ts *TrustStore) VerifyToken(tok string, msg []byte, at time.Time) (string, error) {
	w, err := decodeToken(tok)
	if err != nil {
		return "", err
	}
	key := sha256.Sum256(w.Chain)
	ts.mu.RLock()
	e, hit := ts.memo[key]
	gen := ts.gen
	ts.mu.RUnlock()
	if !hit || at.Before(e.notBefore) || at.After(e.notAfter) {
		chain, err := decodeChain(w.Chain)
		if err != nil {
			return "", err
		}
		id, err := ts.VerifyChain(chain, at)
		if err != nil {
			return "", err
		}
		e = ts.remember(key, gen, chain, id, at)
	}
	h := sha256.Sum256(msg)
	if !verifySig(e.leaf, h[:], w.Signature) {
		return "", ErrBadSignature
	}
	return e.identity, nil
}

// remember memoises a chain that verified at instant at under root
// generation gen and returns its entry. When the memo is full, entries
// already expired at at go first, then arbitrary ones.
func (ts *TrustStore) remember(key [sha256.Size]byte, gen uint64, chain []Certificate, id string, at time.Time) memoEntry {
	e := memoEntry{leaf: chain[0].PublicKey, identity: id, notBefore: chain[0].NotBefore, notAfter: chain[0].NotAfter}
	narrow := func(c *Certificate) {
		if c.NotBefore.After(e.notBefore) {
			e.notBefore = c.NotBefore
		}
		if c.NotAfter.Before(e.notAfter) {
			e.notAfter = c.NotAfter
		}
	}
	for i := range chain {
		narrow(&chain[i])
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if gen != ts.gen {
		return e // a root changed under the walk: answer it, keep nothing
	}
	if last := &chain[len(chain)-1]; last.Kind != KindCA {
		root := ts.roots[last.Issuer]
		narrow(&root)
	}
	if len(ts.memo) >= memoCap {
		for k, old := range ts.memo {
			if old.notAfter.Before(at) {
				delete(ts.memo, k)
			}
		}
		for k := range ts.memo {
			if len(ts.memo) < memoCap {
				break
			}
			delete(ts.memo, k)
		}
	}
	ts.memo[key] = e
	return e
}

// Marshal encodes a credential for storage or wire transport.
func (c *Credential) Marshal() ([]byte, error) { return json.Marshal(c) }

// UnmarshalCredential decodes a credential produced by Marshal.
func UnmarshalCredential(b []byte) (*Credential, error) {
	var c Credential
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("xsec: decode credential: %w", err)
	}
	return &c, nil
}

// EncodeSigned encodes a Signed token for a protocol header.
func EncodeSigned(s *Signed) (string, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeSigned reverses EncodeSigned.
func DecodeSigned(s string) (*Signed, error) {
	w, err := decodeToken(s)
	if err != nil {
		return nil, err
	}
	chain, err := decodeChain(w.Chain)
	if err != nil {
		return nil, err
	}
	return &Signed{Chain: chain, Signature: w.Signature}, nil
}

// wireToken is a Signed token with its chain still in wire form, so
// VerifyToken can key its memo on the exact chain bytes.
type wireToken struct {
	Chain     json.RawMessage `json:"chain"`
	Signature []byte          `json:"signature"`
}

func decodeToken(s string) (wireToken, error) {
	var w wireToken
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return w, fmt.Errorf("xsec: decode signed token: %w", err)
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return w, fmt.Errorf("xsec: decode signed token: %w", err)
	}
	return w, nil
}

// decodeChain decodes a token's chain bytes; an absent chain is empty.
func decodeChain(raw json.RawMessage) ([]Certificate, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	var chain []Certificate
	if err := json.Unmarshal(raw, &chain); err != nil {
		return nil, fmt.Errorf("xsec: decode signed token: %w", err)
	}
	return chain, nil
}

func newSerial() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("xsec: entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}
