// Command paramgen generates a system parameter set and prints it either as
// Go source (for embedding as the package default) or as a human-readable
// summary.
//
// Usage:
//
//	paramgen [-profile production|test] [-gosrc]
//
// The embedded default in internal/params/default.go was produced by:
//
//	go run ./cmd/paramgen -profile production -gosrc
package main

import (
	"crypto/rand"
	"flag"
	"fmt"
	"log"
	"os"

	"idgka/internal/params"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paramgen: ")
	profile := flag.String("profile", "production", "parameter sizes: production or test")
	gosrc := flag.Bool("gosrc", false, "emit Go source for internal/params/default.go")
	flag.Parse()

	var sizes params.Sizes
	switch *profile {
	case "production":
		sizes = params.SizeProduction
	case "test":
		sizes = params.SizeTest
	default:
		log.Fatalf("unknown profile %q", *profile)
	}

	set, err := params.Generate(rand.Reader, sizes)
	if err != nil {
		log.Fatalf("generate: %v", err)
	}
	if err := set.Validate(); err != nil {
		log.Fatalf("validate: %v", err)
	}

	if *gosrc {
		emitGoSource(set)
		return
	}
	fmt.Printf("Schnorr p (%d bits) = %x\n", set.Schnorr.P.BitLen(), set.Schnorr.P)
	fmt.Printf("Schnorr q (%d bits) = %x\n", set.Schnorr.Q.BitLen(), set.Schnorr.Q)
	fmt.Printf("Schnorr g = %x\n", set.Schnorr.G)
	fmt.Printf("RSA n (%d bits) = %x\n", set.RSA.N.BitLen(), set.RSA.N)
	fmt.Printf("RSA e = %v\n", set.RSA.E)
	fmt.Printf("Pairing p (%d bits) = %x\n", set.Pairing.P.BitLen(), set.Pairing.P)
	fmt.Printf("Pairing q (%d bits) = %x\n", set.Pairing.Q.BitLen(), set.Pairing.Q)
}

func emitGoSource(set *params.Set) {
	w := os.Stdout
	fmt.Fprintln(w, "// Code generated by cmd/paramgen -profile production -gosrc; DO NOT EDIT.")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "package params")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "// Hex-encoded production-size parameter set embedded as the package")
	fmt.Fprintln(w, "// default. Includes PKG master secrets: the default set is for tests,")
	fmt.Fprintln(w, "// examples and benchmarks, not for deployments (generate your own).")
	fmt.Fprintln(w, "const (")
	fmt.Fprintf(w, "\tdefSchnorrP = %q\n", fmt.Sprintf("%x", set.Schnorr.P))
	fmt.Fprintf(w, "\tdefSchnorrQ = %q\n", fmt.Sprintf("%x", set.Schnorr.Q))
	fmt.Fprintf(w, "\tdefSchnorrG = %q\n", fmt.Sprintf("%x", set.Schnorr.G))
	fmt.Fprintf(w, "\tdefRSAN     = %q\n", fmt.Sprintf("%x", set.RSA.N))
	fmt.Fprintf(w, "\tdefRSAE     = %q\n", fmt.Sprintf("%x", set.RSA.E))
	fmt.Fprintf(w, "\tdefRSAP     = %q\n", fmt.Sprintf("%x", set.RSA.P.BigVarTime()))
	fmt.Fprintf(w, "\tdefRSAQ     = %q\n", fmt.Sprintf("%x", set.RSA.Q.BigVarTime()))
	fmt.Fprintf(w, "\tdefRSAD     = %q\n", fmt.Sprintf("%x", set.RSA.D.BigVarTime()))
	fmt.Fprintf(w, "\tdefPairP    = %q\n", fmt.Sprintf("%x", set.Pairing.P))
	fmt.Fprintf(w, "\tdefPairQ    = %q\n", fmt.Sprintf("%x", set.Pairing.Q))
	fmt.Fprintf(w, "\tdefPairC    = %q\n", fmt.Sprintf("%x", set.Pairing.C))
	fmt.Fprintf(w, "\tdefPairGx   = %q\n", fmt.Sprintf("%x", set.Pairing.Gx))
	fmt.Fprintf(w, "\tdefPairGy   = %q\n", fmt.Sprintf("%x", set.Pairing.Gy))
	fmt.Fprintln(w, ")")
}
