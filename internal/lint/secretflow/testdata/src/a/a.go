// Package a seeds secretflow violations and proves the exemptions.
package a

import (
	"fmt"
	"log"

	"idgka/internal/sigs/gq"
	"vault"
)

func leaksBuiltin(sk *gq.PrivateKey) error {
	fmt.Println(sk.S)                                // want `secret idgka/internal/sigs/gq\.PrivateKey\.S reaches fmt formatting`
	log.Printf("key=%v", sk)                         // want `secret idgka/internal/sigs/gq\.PrivateKey reaches log formatting`
	_ = sk.S.String()                                // want `secret idgka/internal/sigs/gq\.PrivateKey\.S stringified via String`
	_ = sk.S.Text(16)                                // want `secret idgka/internal/sigs/gq\.PrivateKey\.S stringified via Text`
	return fmt.Errorf("extract failed for %v", sk.S) // want `secret idgka/internal/sigs/gq\.PrivateKey\.S reaches fmt formatting`
}

func leaksAnnotated(st vault.DRBGState, c vault.Creds) {
	fmt.Println(st)      // want `secret vault\.DRBGState reaches fmt formatting`
	fmt.Println(c.Token) // want `secret vault\.Creds\.Token reaches fmt formatting`
	fmt.Println(c.User)  // public field: fine
}

func fine(sk *gq.PrivateKey) {
	fmt.Println(sk.ID)             // identity is public
	fmt.Println(len(sk.S.Bytes())) // a length leaks no limbs
}

// ident carries a key's public identity next to the key itself.
type ident struct {
	id string
	sk *gq.PrivateKey
}

func newIdent(sk *gq.PrivateKey) ident { return ident{id: sk.ID, sk: sk} }

func fineAcrossCall(sk *gq.PrivateKey) {
	fmt.Println(newIdent(sk)) // the public-field projection holds through a call
}

func waived(sk *gq.PrivateKey) {
	//gkalint:secretok test-vector dump behind a debug flag, never in production paths
	fmt.Println(sk.S)
}

// LocalKey is a package-local secret.
//
//gkalint:secret
type LocalKey struct{ d []byte }

// String leaks the exponent bytes through every %v.
func (k LocalKey) String() string { // want `secret type a\.LocalKey declares String`
	return string(k.d)
}
