package mathx

// WithoutLane returns a Modulus of mo's value that runs every chain on
// montMul, in the machine-word representation other CPUs and builds
// use, so tests and benchmarks outside the package can set the
// radix-2^52 lane against that fallback. Its Elems and Packed slots do
// not mix with mo's where mo runs the lane.
func WithoutLane(mo *Modulus) *Modulus {
	generic, err := newModulus(mo.m, false)
	if err != nil {
		panic(err)
	}
	return generic
}

// HasLane reports whether mo's chains run on the radix-2^52 lane.
func HasLane(mo *Modulus) bool { return mo.lane }

// chainBackends returns mo's chain backends by name: "lane" where the
// radix-2^52 kernel serves mo, and always "montMul".
func chainBackends(mo *Modulus) map[string]*Modulus {
	out := map[string]*Modulus{"montMul": WithoutLane(mo)}
	if mo.lane {
		out["lane"] = mo
	}
	return out
}

// tableBackends returns t and a table of its base and geometry over
// WithoutLane of its modulus by name, as chainBackends does: "lane"
// where t walks on the radix-2^52 kernel, and always "montMul".
func tableBackends(t *FixedBaseTable) map[string]*FixedBaseTable {
	generic, err := newCombTable(t.base, WithoutLane(t.mo), t.maxBits, t.h, t.v)
	if err != nil {
		panic(err)
	}
	out := map[string]*FixedBaseTable{"montMul": generic}
	if t.mo.lane {
		out["lane"] = t
	}
	return out
}
