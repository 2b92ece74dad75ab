package baseline

import (
	"fmt"
	"io"
	"math/big"
	"sync"

	"idgka/internal/ec"
	"idgka/internal/meter"
	"idgka/internal/pki"
	"idgka/internal/sigs/dsa"
	"idgka/internal/sigs/ecdsa"
	"idgka/internal/sigs/sok"
)

// SOKAuth authenticates BD with Sakai-Ohgishi-Kasahara ID-based
// signatures: no certificates, but every verification costs three pairings
// plus a MapToPoint.
type SOKAuth struct {
	params sok.SystemParams
	sk     *sok.PrivateKey
}

// NewSOKAuth builds the authenticator for one member.
func NewSOKAuth(params sok.SystemParams, sk *sok.PrivateKey) *SOKAuth {
	return &SOKAuth{params: params, sk: sk}
}

// Scheme implements Authenticator.
func (a *SOKAuth) Scheme() meter.Scheme { return meter.SchemeSOK }

// Sign implements Authenticator.
func (a *SOKAuth) Sign(rnd io.Reader, msg []byte) ([]byte, error) {
	sig, err := a.sk.Sign(rnd, msg)
	if err != nil {
		return nil, err
	}
	return sig.Encode(a.params.Group), nil
}

// Verify implements Authenticator.
func (a *SOKAuth) Verify(peerID string, msg, sigBytes []byte) error {
	sig, err := sok.Decode(a.params.Group, sigBytes)
	if err != nil {
		return err
	}
	return sok.Verify(a.params, peerID, msg, sig)
}

// Credential implements Authenticator (ID-based: none).
func (a *SOKAuth) Credential() []byte { return nil }

// CheckCredential implements Authenticator (ID-based: none expected).
func (a *SOKAuth) CheckCredential(string, []byte) error { return nil }

// UsesMapToPoint implements Authenticator.
func (a *SOKAuth) UsesMapToPoint() bool { return true }

// certAuth authenticates BD with certificate-based signatures, 160-bit
// ECDSA (secp160r1) or 1024-bit DSA: the cheapest per-verification
// baselines, but each member must ship, receive and verify certificates.
// NewECDSAIdentity and NewDSAIdentity fix its scheme through its key.
type certAuth struct {
	key    certKey
	cert   *pki.Certificate
	anchor *pki.TrustAnchor

	mu    sync.Mutex
	peers map[string]certKey // verified peer keys
}

// certKey is a DSA or ECDSA key with its wire encodings: signatures as
// two order-sized blocks, public keys as big-endian Y or a compressed
// point.
type certKey interface {
	scheme() meter.Scheme
	publicKey() []byte
	sign(rnd io.Reader, msg []byte) ([]byte, error)
	verify(msg, sig []byte) error
	// peer parses a certified public key of the same scheme and group.
	peer(pub []byte) (certKey, error)
}

// Scheme implements Authenticator.
func (a *certAuth) Scheme() meter.Scheme { return a.key.scheme() }

// Sign implements Authenticator.
func (a *certAuth) Sign(rnd io.Reader, msg []byte) ([]byte, error) {
	return a.key.sign(rnd, msg)
}

// Verify implements Authenticator.
func (a *certAuth) Verify(peerID string, msg, sig []byte) error {
	a.mu.Lock()
	peer := a.peers[peerID]
	a.mu.Unlock()
	if peer == nil {
		return fmt.Errorf("baseline: no verified certificate for %s", peerID)
	}
	return peer.verify(msg, sig)
}

// Credential implements Authenticator.
func (a *certAuth) Credential() []byte { return a.cert.Encode() }

// CheckCredential implements Authenticator: verify the CA signature and
// cache the bound public key.
func (a *certAuth) CheckCredential(peerID string, cred []byte) error {
	cert, err := pki.DecodeCertificate(cred)
	if err != nil {
		return err
	}
	if cert.Subject != peerID {
		return fmt.Errorf("baseline: certificate subject %q != sender %q", cert.Subject, peerID)
	}
	if err := a.anchor.VerifyCertificate(cert); err != nil {
		return err
	}
	peer, err := a.key.peer(cert.PublicKey)
	if err != nil {
		return err
	}
	a.mu.Lock()
	a.peers[peerID] = peer
	a.mu.Unlock()
	return nil
}

// UsesMapToPoint implements Authenticator.
func (a *certAuth) UsesMapToPoint() bool { return false }

// newCertAuth has ca certify key for id.
func newCertAuth(rnd io.Reader, id string, ca *pki.CA, key certKey) (Authenticator, error) {
	cert, err := ca.Issue(rnd, id, key.publicKey())
	if err != nil {
		return nil, err
	}
	return &certAuth{key: key, cert: cert, anchor: ca.Anchor(), peers: map[string]certKey{}}, nil
}

// NewECDSAIdentity issues a key pair plus certificate for one member.
func NewECDSAIdentity(rnd io.Reader, id string, curve *ec.Curve, ca *pki.CA) (Authenticator, error) {
	kp, err := ecdsa.GenerateKey(rnd, curve)
	if err != nil {
		return nil, err
	}
	return newCertAuth(rnd, id, ca, ecdsaKey{kp})
}

// NewDSAIdentity issues a certificate for one member's key pair.
func NewDSAIdentity(rnd io.Reader, id string, ca *pki.CA, kp *dsa.KeyPair) (Authenticator, error) {
	return newCertAuth(rnd, id, ca, dsaKey{kp})
}

type ecdsaKey struct{ kp *ecdsa.KeyPair }

func (k ecdsaKey) scheme() meter.Scheme { return meter.SchemeECDSA }

func (k ecdsaKey) publicKey() []byte { return k.kp.Curve.MarshalCompressed(k.kp.Q) }

func (k ecdsaKey) sign(rnd io.Reader, msg []byte) ([]byte, error) {
	sig, err := k.kp.Sign(rnd, msg)
	if err != nil {
		return nil, err
	}
	return sig.Encode(k.kp.Curve), nil
}

func (k ecdsaKey) verify(msg, sig []byte) error {
	s, err := ecdsa.Decode(sig, k.kp.Curve)
	if err != nil {
		return err
	}
	return k.kp.Verify(msg, s)
}

func (k ecdsaKey) peer(pub []byte) (certKey, error) {
	pt, err := k.kp.Curve.UnmarshalCompressed(pub)
	if err != nil {
		return nil, err
	}
	return ecdsaKey{&ecdsa.KeyPair{Curve: k.kp.Curve, Q: pt}}, nil
}

type dsaKey struct{ kp *dsa.KeyPair }

func (k dsaKey) scheme() meter.Scheme { return meter.SchemeDSA }

func (k dsaKey) publicKey() []byte { return k.kp.Y.Bytes() }

func (k dsaKey) sign(rnd io.Reader, msg []byte) ([]byte, error) {
	sig, err := k.kp.Sign(rnd, msg)
	if err != nil {
		return nil, err
	}
	return sig.Encode(k.kp.Group.Q), nil
}

func (k dsaKey) verify(msg, sig []byte) error {
	s, err := dsa.Decode(sig, k.kp.Group.Q)
	if err != nil {
		return err
	}
	return k.kp.Verify(msg, s)
}

func (k dsaKey) peer(pub []byte) (certKey, error) {
	return dsaKey{&dsa.KeyPair{Group: k.kp.Group, Y: new(big.Int).SetBytes(pub)}}, nil
}
