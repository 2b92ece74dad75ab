// Package redacttest checks that fmt shows no secret a value holds, for
// the redaction tests of the packages that hold key material.
package redacttest

import (
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"testing"
)

// Verbs are the verbs Check formats with.
var Verbs = []string{"%v", "%+v", "%#v", "%x", "%X", "%d", "%s"}

// Check formats v with every verb in every placement: at top level, in an
// unexported field, in an exported field, in a slice and in a twice-wrapped
// error, and for a pointer to a struct, the struct itself the same way.
// It reports each output that shows one of the secrets v holds, in decimal
// or hex, whole or as any of its machine words (of 32 or 64 bits) or
// radix-2^52 limbs, or as its big-endian bytes. Words and limbs below 2^24
// are not looked for: they match by chance.
func Check(t testing.TB, name string, v any, secrets ...*big.Int) {
	t.Helper()
	var tokens []string
	for _, s := range secrets {
		tokens = append(tokens, renderings(s)...)
	}
	values := []any{v}
	if rv := reflect.ValueOf(v); rv.Kind() == reflect.Pointer && rv.Elem().Kind() == reflect.Struct {
		values = append(values, rv.Elem().Interface())
	}
	for _, v := range values {
		placements := map[string]any{
			"top level":        v,
			"unexported field": struct{ v any }{v},
			"exported field":   struct{ V any }{v},
			"slice":            []any{v},
		}
		for _, verb := range Verbs {
			outs := map[string]string{
				"wrapped error": fmt.Sprintf(verb, fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", fmt.Errorf("value "+verb, v)))),
			}
			for where, p := range placements {
				outs[where] = fmt.Sprintf(verb, p)
			}
			for where, out := range outs {
				for _, tok := range tokens {
					if strings.Contains(out, tok) {
						t.Errorf("%s %T, %s, %s: shows a secret as %q", name, v, where, verb, tok)
					}
				}
			}
		}
	}
}

// renderings returns the strings fmt would show s as: whole, its words
// and limbs, and its bytes under %v, %d and %s.
func renderings(s *big.Int) []string {
	out := []string{s.Text(10), s.Text(16), strings.ToUpper(s.Text(16))}
	floor := big.NewInt(1 << 24)
	for _, width := range []uint{32, 52, 64} {
		mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), width), big.NewInt(1))
		for x := new(big.Int).Set(s); x.Sign() > 0; x.Rsh(x, width) {
			if w := new(big.Int).And(x, mask); w.Cmp(floor) >= 0 {
				out = append(out, w.Text(10), w.Text(16), strings.ToUpper(w.Text(16)))
			}
		}
	}
	if b := s.Bytes(); len(b) >= 8 {
		out = append(out, strings.Trim(fmt.Sprint(b[:8]), "[]"), string(b[:8]))
	}
	return out
}

// Montgomery returns v and its Montgomery images v·R mod m for every R a
// mathx.Modulus of m can take: 2^1040 on the radix-2^52 lane, else 2 to
// the width of m's 32- or 64-bit words.
func Montgomery(v, m *big.Int) []*big.Int {
	out := []*big.Int{v}
	for _, shift := range []int{1040, (m.BitLen() + 31) / 32 * 32, (m.BitLen() + 63) / 64 * 64} {
		out = append(out, new(big.Int).Mod(new(big.Int).Lsh(v, uint(shift)), m))
	}
	return out
}
