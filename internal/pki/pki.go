// Package pki provides the two trust substrates the paper compares:
//
//   - an ID-based PKG (Private Key Generator) wrapping GQ and SOK key
//     extraction — no certificates at all, the point of the proposed
//     scheme; and
//   - a certificate authority issuing compact certificates for the
//     DSA/ECDSA baselines, which force every BD participant to transmit,
//     receive and verify certificates (Table 1's CertTx/CertRx/CertVer
//     rows).
//
// Certificates here are deliberately minimal (subject, scheme, key,
// serial, CA signature): the paper charges 263 bytes for a DSA certificate
// and 86 bytes for an ECDSA one, and internal/energy uses those nominal
// figures; this package's encodings land in the same regime.
package pki

import (
	"errors"
	"fmt"
	"io"

	"idgka/internal/ec"
	"idgka/internal/mathx"
	"idgka/internal/pairing"
	"idgka/internal/params"
	"idgka/internal/sigs/dsa"
	"idgka/internal/sigs/ecdsa"
	"idgka/internal/sigs/gq"
	"idgka/internal/sigs/sok"
	"idgka/internal/wire"
)

// PKG is the ID-based private key generator of the paper's Setup/Extract
// phases, able to extract both GQ and SOK identity keys.
type PKG struct {
	set *params.Set
	sok *sok.PKG
}

// NewPKG wraps a full parameter set (with master keys) into a PKG. The SOK
// master key is drawn fresh from rnd.
func NewPKG(rnd io.Reader, set *params.Set) (*PKG, error) {
	if !set.HasMasterKey() {
		return nil, errors.New("pki: parameter set lacks PKG master key")
	}
	g, err := pairing.NewGroup(set.Pairing)
	if err != nil {
		return nil, err
	}
	sp, err := sok.NewPKG(rnd, g)
	if err != nil {
		return nil, err
	}
	return &PKG{set: set, sok: sp}, nil
}

// Params returns the public parameter set participants receive.
func (p *PKG) Params() *params.Set { return p.set.Public() }

// SOKParams returns the public SOK system parameters.
func (p *PKG) SOKParams() sok.SystemParams { return p.sok.Params }

// ExtractGQ derives the GQ identity key S_ID = H(ID)^d.
func (p *PKG) ExtractGQ(id string) (*gq.PrivateKey, error) {
	return gq.Extract(p.set.RSA, id)
}

// ExtractSOK derives the SOK identity key D_ID = s·H1(ID).
func (p *PKG) ExtractSOK(id string) (*sok.PrivateKey, error) {
	return p.sok.Extract(id)
}

// CertScheme labels the signature scheme a certificate binds.
type CertScheme string

// Supported certificate schemes.
const (
	CertDSA   CertScheme = "DSA"
	CertECDSA CertScheme = "ECDSA"
)

// Certificate binds a subject identity to a public key under a CA
// signature.
type Certificate struct {
	Subject   string
	Scheme    CertScheme
	PublicKey []byte // scheme-specific encoding
	Issuer    string
	Serial    uint64
	Signature []byte // CA signature over the TBS encoding
}

// tbs returns the to-be-signed encoding.
func (c *Certificate) tbs() []byte {
	return wire.NewBuffer().
		PutString(c.Subject).
		PutString(string(c.Scheme)).
		PutBytes(c.PublicKey).
		PutString(c.Issuer).
		PutUint(c.Serial).
		Bytes()
}

// Encode serialises the full certificate.
func (c *Certificate) Encode() []byte {
	return wire.NewBuffer().
		PutString(c.Subject).
		PutString(string(c.Scheme)).
		PutBytes(c.PublicKey).
		PutString(c.Issuer).
		PutUint(c.Serial).
		PutBytes(c.Signature).
		Bytes()
}

// DecodeCertificate parses an Encode output.
func DecodeCertificate(data []byte) (*Certificate, error) {
	r := wire.NewReader(data)
	c := &Certificate{
		Subject:   r.String(),
		Scheme:    CertScheme(r.String()),
		PublicKey: append([]byte(nil), r.Bytes()...),
		Issuer:    r.String(),
		Serial:    r.Uint(),
		Signature: append([]byte(nil), r.Bytes()...),
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("pki: certificate: %w", err)
	}
	return c, nil
}

// CA issues certificates under one signing key, DSA or ECDSA; NewDSACA
// and NewECDSACA fix which.
type CA struct {
	ID     string
	Scheme CertScheme

	sign   func(rnd io.Reader, tbs []byte) ([]byte, error) // encoded signature
	verify func(tbs, sig []byte) error                     // the public half

	serial uint64
}

// NewDSACA creates a DSA certificate authority over the Schnorr group.
func NewDSACA(rnd io.Reader, id string, g *mathx.SchnorrGroup) (*CA, error) {
	kp, err := dsa.GenerateKey(rnd, g)
	if err != nil {
		return nil, err
	}
	pub := kp.PublicOnly()
	return &CA{
		ID:     id,
		Scheme: CertDSA,
		sign: func(rnd io.Reader, tbs []byte) ([]byte, error) {
			sig, err := kp.Sign(rnd, tbs)
			if err != nil {
				return nil, err
			}
			return sig.Encode(g.Q), nil
		},
		verify: func(tbs, sig []byte) error {
			s, err := dsa.Decode(sig, g.Q)
			if err != nil {
				return err
			}
			return pub.Verify(tbs, s)
		},
	}, nil
}

// NewECDSACA creates an ECDSA certificate authority on the curve.
func NewECDSACA(rnd io.Reader, id string, c *ec.Curve) (*CA, error) {
	kp, err := ecdsa.GenerateKey(rnd, c)
	if err != nil {
		return nil, err
	}
	pub := kp.PublicOnly()
	return &CA{
		ID:     id,
		Scheme: CertECDSA,
		sign: func(rnd io.Reader, tbs []byte) ([]byte, error) {
			sig, err := kp.Sign(rnd, tbs)
			if err != nil {
				return nil, err
			}
			return sig.Encode(c), nil
		},
		verify: func(tbs, sig []byte) error {
			s, err := ecdsa.Decode(sig, c)
			if err != nil {
				return err
			}
			return pub.Verify(tbs, s)
		},
	}, nil
}

// Issue signs a certificate binding subject to the encoded public key. The
// key encoding must match the CA's scheme (DSA: big-endian Y; ECDSA:
// compressed point).
func (ca *CA) Issue(rnd io.Reader, subject string, publicKey []byte) (*Certificate, error) {
	if subject == "" {
		return nil, errors.New("pki: empty subject")
	}
	ca.serial++
	cert := &Certificate{
		Subject:   subject,
		Scheme:    ca.Scheme,
		PublicKey: publicKey,
		Issuer:    ca.ID,
		Serial:    ca.serial,
	}
	sig, err := ca.sign(rnd, cert.tbs())
	if err != nil {
		return nil, err
	}
	cert.Signature = sig
	return cert, nil
}

// TrustAnchor is the public verification material distributed to relying
// parties.
type TrustAnchor struct {
	CAID   string
	Scheme CertScheme
	verify func(tbs, sig []byte) error
}

// Anchor exports the CA's public verification material.
func (ca *CA) Anchor() *TrustAnchor {
	return &TrustAnchor{CAID: ca.ID, Scheme: ca.Scheme, verify: ca.verify}
}

// VerifyCertificate checks the CA signature and issuer binding.
func (a *TrustAnchor) VerifyCertificate(cert *Certificate) error {
	if cert == nil {
		return errors.New("pki: nil certificate")
	}
	if cert.Issuer != a.CAID {
		return fmt.Errorf("pki: issuer %q is not trusted anchor %q", cert.Issuer, a.CAID)
	}
	if cert.Scheme != a.Scheme {
		return fmt.Errorf("pki: certificate scheme %q does not match anchor %q", cert.Scheme, a.Scheme)
	}
	return a.verify(cert.tbs(), cert.Signature)
}
