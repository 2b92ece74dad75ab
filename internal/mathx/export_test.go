package mathx

// WithoutLane returns a copy of mo that runs every chain on montMul, so
// tests and benchmarks outside the package can set the radix-2^52 lane
// against the fallback other CPUs and builds run.
func WithoutLane(mo *Modulus) *Modulus {
	generic := *mo
	generic.lane = nil
	return &generic
}

// HasLane reports whether mo's chains run on the radix-2^52 lane.
func HasLane(mo *Modulus) bool { return mo.lane != nil }

// chainBackends returns mo's chain backends by name: "lane" where the
// radix-2^52 kernel serves mo, and always "montMul".
func chainBackends(mo *Modulus) map[string]*Modulus {
	out := map[string]*Modulus{"montMul": WithoutLane(mo)}
	if mo.lane != nil {
		out["lane"] = mo
	}
	return out
}

// tableBackends returns t's walks by name, as chainBackends does: "lane"
// where the table walks on the radix-2^52 kernel, and always "montMul".
func tableBackends(t *FixedBaseTable) map[string]*FixedBaseTable {
	generic := *t
	generic.lane = nil
	out := map[string]*FixedBaseTable{"montMul": &generic}
	if t.lane != nil {
		out["lane"] = t
	}
	return out
}
