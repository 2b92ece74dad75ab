package params

import (
	"math/big"
	"sync"

	"idgka/internal/mathx"
)

var (
	defaultOnce sync.Once
	defaultSet  *Set
)

// Default returns the embedded production-size parameter set (1024-bit
// Schnorr p / 160-bit q, 1024-bit GQ modulus, 512-bit pairing field). The
// set includes PKG master secrets so tests and examples can play the PKG
// role deterministically; real deployments must call Generate.
func Default() *Set {
	defaultOnce.Do(func() {
		n := mustHex(defRSAN)
		defaultSet = &Set{
			Schnorr: &mathx.SchnorrGroup{
				P: mustHex(defSchnorrP),
				Q: mustHex(defSchnorrQ),
				G: mustHex(defSchnorrG),
			},
			RSA: &mathx.RSAParams{
				N: n,
				E: mustHex(defRSAE),
				P: mustScalar(n, defRSAP),
				Q: mustScalar(n, defRSAQ),
				D: mustScalar(n, defRSAD),
			},
			Pairing: &PairingParams{
				P:  mustHex(defPairP),
				Q:  mustHex(defPairQ),
				C:  mustHex(defPairC),
				Gx: mustHex(defPairGx),
				Gy: mustHex(defPairGy),
			},
		}
	})
	return defaultSet
}

func mustHex(s string) *big.Int {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("params: corrupt embedded constant")
	}
	return v
}

// mustScalar returns the hex constant s as a secret below n.
func mustScalar(n *big.Int, s string) mathx.Scalar {
	v, err := mathx.NewScalar(n, mustHex(s))
	if err != nil {
		panic("params: corrupt embedded constant")
	}
	return v
}
