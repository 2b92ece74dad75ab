package experiments

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"time"

	"idgka/internal/bdkey"
	"idgka/internal/ec"
	"idgka/internal/mathx"
	"idgka/internal/pairing"
	"idgka/internal/sigs/gq"
)

// OpStat is one tracked operation of the acceleration benchmark: the
// serial (naive) and accelerated per-op costs plus their ratio. The CI
// bench-regression gate compares Speedup values against the committed
// baseline — ratios are far more stable across runner hardware than
// absolute nanoseconds.
type OpStat struct {
	SerialNS float64 `json:"serial_ns"`
	AccelNS  float64 `json:"accel_ns"`
	Speedup  float64 `json:"speedup"`
}

// AccelGroupSize is the group size of the headline measurement: the
// initial-flow key computation for a 16-member ring, the acceptance
// benchmark of the acceleration layer (target: >= 2x with precomputation
// and a 4-worker pool).
const AccelGroupSize = 16

// accelBatchSize is the batch size of the gq/batch-verify row. It must
// exceed mathx's chunked-product threshold (32), otherwise the
// "accelerated" side would silently run the serial product path and the
// CI gate row could never catch a parallelism regression.
const accelBatchSize = 64

// amortizeGroups is the claim count of the serve/amortized-verify row:
// how many concurrent groups' GQ settlements one random-linear-combination
// check coalesces.
const amortizeGroups = 16

// measure times one operation: it warms once, then takes the MINIMUM
// per-op time over several sampling rounds. The minimum is the stable
// statistic under scheduler noise (interruptions only ever inflate a
// round), which keeps the CI gate's speedup ratios reproducible across
// runs on the same hardware.
func measure(f func()) float64 {
	const (
		rounds      = 5
		roundSample = 30 * time.Millisecond
		maxIters    = 2048
	)
	f() // warm-up (first big.Int allocations, table lookups into cache)
	best := 0.0
	for r := 0; r < rounds; r++ {
		iters := 0
		start := time.Now()
		for time.Since(start) < roundSample && iters < maxIters {
			f()
			iters++
		}
		perOp := float64(time.Since(start).Nanoseconds()) / float64(iters)
		if best == 0 || perOp < best {
			best = perOp
		}
	}
	return best
}

// AccelBench measures the crypto acceleration layer op by op: windowed
// fixed-base exponentiation, precomputed GQ responses, the
// multi-exponentiation key assembly, worker-pool batch verification, and
// the fixed-base scalar multiplications of the EC and pairing substrates.
// The headline row runs the member-side key computation of the initial
// flow — every member's blinded exponent z_i = g^{r_i}, GQ commitment
// t_i = τ^e and authenticated response s_i = τ·S^c, plus the
// Burmester-Desmedt small-exponent key assembly — for an n-member group,
// serial/naive versus precomputed tables with the contributions spread
// over `workers` goroutines. Returns the rendered table and the tracked
// op map for the -json document.
func (e *Env) AccelBench(n, workers int) (string, map[string]OpStat, error) {
	if n < 2 {
		return "", nil, fmt.Errorf("experiments: accel bench needs n >= 2, got %d", n)
	}
	if workers < 1 {
		workers = 1
	}
	sg := e.Set.Schnorr
	ops := map[string]OpStat{}
	add := func(name string, serial, accel float64) {
		ops[name] = OpStat{SerialNS: serial, AccelNS: accel, Speedup: serial / accel}
	}

	// --- substrate ops -------------------------------------------------

	// Windowed fixed-base exponentiation in the Schnorr group.
	gTab := sg.Precompute()
	if gTab == nil {
		return "", nil, fmt.Errorf("experiments: Schnorr precompute failed")
	}
	r0, err := mathx.RandScalar(rand.Reader, sg.Q)
	if err != nil {
		return "", nil, err
	}
	add("schnorr/fixed-base-exp",
		measure(func() { new(big.Int).Exp(sg.G, r0, sg.P) }),
		measure(func() { gTab.Exp(r0) }))

	// Precomputed GQ response s = τ·S^c.
	skSerial, err := e.PKG.ExtractGQ("accel-serial")
	if err != nil {
		return "", nil, err
	}
	skAccel, err := e.PKG.ExtractGQ("accel-fast")
	if err != nil {
		return "", nil, err
	}
	skAccel.Precompute()
	tau, _, err := gq.Commitment(rand.Reader, skSerial.Pub)
	if err != nil {
		return "", nil, err
	}
	c0, err := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
	if err != nil {
		return "", nil, err
	}
	add("gq/respond",
		measure(func() { skSerial.Respond(tau, c0) }),
		measure(func() { skAccel.Respond(tau, c0) }))

	// Montgomery-domain variable-base multi-exponentiation: the product
	// Π b_i^{e_i} that RLC claim settlement and batch verification reduce
	// to. Serial is one big.Exp per base plus the running product; the
	// accelerated side converts into the Montgomery domain, runs the
	// interleaved sliding-window MultiExpElem (one shared squaring chain
	// across all exponents), and converts back — conversions inside the
	// timed region. A SINGLE variable-base exponentiation is not a row of
	// its own: the engine's are round 2's two edge powers and the eq. 2
	// power of the cached inverse, which member-pipeline times in place.
	const multiExpBases = 8
	meBases := make([]*big.Int, multiExpBases)
	meExps := make([]*big.Int, multiExpBases)
	for i := range meBases {
		if meBases[i], err = mathx.RandUnit(rand.Reader, sg.P); err != nil {
			return "", nil, err
		}
		if meExps[i], err = mathx.RandScalar(rand.Reader, sg.Q); err != nil {
			return "", nil, err
		}
	}
	mo := sg.Mont()
	if mo == nil {
		return "", nil, fmt.Errorf("experiments: Schnorr Montgomery context failed")
	}
	add("mont/var-base-exp",
		measure(func() {
			acc := big.NewInt(1)
			for i := range meBases {
				acc.Mul(acc, new(big.Int).Exp(meBases[i], meExps[i], sg.P))
				acc.Mod(acc, sg.P)
			}
		}),
		measure(func() {
			elems := make([]mathx.Elem, multiExpBases)
			for i := range meBases {
				elems[i] = mo.ToMont(meBases[i])
			}
			out, err := mo.MultiExpElem(elems, meExps)
			if err != nil {
				panic(err)
			}
			mo.FromMont(out)
		}))

	// Burmester-Desmedt key assembly. The accelerated side is the
	// edge-carrying Montgomery finish: round 2 already computed
	// edge = z_{i-1}^{r_i}, so the finish converts the wire X values into
	// the Montgomery domain (conversions timed) and folds equation 3 as
	// edge^n times a Horner product chain — no full-width exponentiation.
	ring := buildAccelRing(sg, n)
	add("bd/key-assembly",
		measure(func() {
			if _, err := bdkey.Key(0, ring.rs[0], ring.zs[n-1], ring.xs, sg.P); err != nil {
				panic(err)
			}
		}),
		measure(func() {
			xsM := make([]mathx.Elem, n)
			for j := range ring.xs {
				xsM[j] = mo.ToMont(ring.xs[j])
			}
			if _, err := bdkey.KeyFromEdgeMont(mo, 0, mo.ToMont(ring.edges[0]), xsM); err != nil {
				panic(err)
			}
		}))

	// Batch verification of independent contributions, sized to exercise
	// the chunked-product path. The accelerated side is a cached
	// GroupVerifier: the roster's identity-hash product and its inverse's
	// fixed-base table are built once per roster (outside the loop, as the
	// engine caches them per session) instead of being recomputed every
	// verification.
	pub, ids, responses, c, z, err := e.accelBatch(accelBatchSize)
	if err != nil {
		return "", nil, err
	}
	gv, err := gq.NewGroupVerifier(pub, ids)
	if err != nil {
		return "", nil, err
	}
	add("gq/batch-verify",
		measure(func() {
			if err := gq.BatchVerify(pub, ids, responses, c, z); err != nil {
				panic(err)
			}
		}),
		measure(func() {
			if err := gv.BatchVerify(responses, c, z); err != nil {
				panic(err)
			}
		}))

	// Host-level amortized claim settlement: J concurrent groups' GQ
	// checks, individually versus coalesced into one random-linear-
	// combination equation (the serve.Host AmortizeVerify path). Both
	// sides settle all J claims per measured op, so the ratio is the
	// per-claim amortization factor at this batch size; it keeps growing
	// with the number of concurrently keying groups.
	claims, err := e.accelClaims(amortizeGroups, 4)
	if err != nil {
		return "", nil, err
	}
	add("serve/amortized-verify",
		measure(func() {
			for _, cl := range claims {
				if err := cl.Verify(); err != nil {
					panic(err)
				}
			}
		}),
		measure(func() {
			if err := gq.VerifyClaimsRLC(rand.Reader, claims); err != nil {
				panic(err)
			}
		}))

	// EC fixed-base scalar multiplication (ECDSA baseline substrate).
	curve := ec.Secp160r1()
	curve.Precompute()
	k0, err := curve.RandScalar(rand.Reader)
	if err != nil {
		return "", nil, err
	}
	add("ec/scalar-base-mult",
		measure(func() { curve.ScalarMult(curve.Generator(), k0) }),
		measure(func() { curve.ScalarBaseMult(k0) }))

	// Pairing-group fixed-base scalar multiplication (SOK substrate).
	pg, err := pairing.NewGroup(e.Set.Pairing)
	if err != nil {
		return "", nil, err
	}
	pg.Precompute()
	pk0, err := pg.RandScalar(rand.Reader)
	if err != nil {
		return "", nil, err
	}
	add("pairing/scalar-base-mult",
		measure(func() { pg.ScalarMult(pg.Generator(), pk0) }),
		measure(func() { pg.ScalarBaseMult(pk0) }))

	// --- headline: initial-flow key computation ------------------------

	contrib, pipeline, err := e.accelInitialFlow(n, workers, gTab)
	if err != nil {
		return "", nil, err
	}
	ops["initial/key-computation"] = contrib
	ops["initial/member-pipeline"] = pipeline

	// --- rendering ------------------------------------------------------

	order := []string{
		"initial/key-computation",
		"initial/member-pipeline",
		"schnorr/fixed-base-exp",
		"mont/var-base-exp",
		"gq/respond",
		"bd/key-assembly",
		"gq/batch-verify",
		"serve/amortized-verify",
		"ec/scalar-base-mult",
		"pairing/scalar-base-mult",
	}
	rows := make([][]string, 0, len(order))
	for _, name := range order {
		s := ops[name]
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.1f", s.SerialNS/1000),
			fmt.Sprintf("%.1f", s.AccelNS/1000),
			fmt.Sprintf("%.2fx", s.Speedup),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Acceleration layer (n=%d, workers=%d)\n", n, workers)
	b.WriteString(Table([]string{"op", "serial µs", "accel µs", "speedup"}, rows))
	head := ops["initial/key-computation"]
	fmt.Fprintf(&b, "initial-flow key computation (n=%d, precompute + %d workers): %.2fx speedup (target >= 2x)\n",
		n, workers, head.Speedup)
	fmt.Fprintf(&b, "(key-computation = every member's z_i, t_i, s_i keying ops; member-pipeline is the complete\n"+
		" member: those plus the round-2 X value, the eq. 2 batch verification of every ring response,\n"+
		" and the eq. 3 key derivation)\n")
	fmt.Fprintf(&b, "(bd/key-assembly's accelerated side is the edge-carrying restructure: the z_{i-1}^{r_i} power moves\n"+
		" into round 2 — where it is paid, on the Montgomery engine, see member-pipeline — so the finish folds\n"+
		" eq. 3 in the Montgomery domain with no full-width exponentiation)\n")
	fmt.Fprintf(&b, "(serve/amortized-verify = %d concurrent groups' GQ settlements, individually vs one RLC check;\n"+
		" the per-claim saving keeps growing with the number of concurrently keying groups)\n", amortizeGroups)
	return b.String(), ops, nil
}

// accelRing is a synthetic honest ring for the key-assembly measurement.
// edges[i] = z_{i-1}^{r_i} is the round-2 by-product the edge-carrying
// restructure hands to the finish phase (see bdkey.KeyFromEdgeMont).
type accelRing struct {
	rs, zs, xs, edges []*big.Int
}

func buildAccelRing(sg *mathx.SchnorrGroup, n int) *accelRing {
	ring := &accelRing{
		rs:    make([]*big.Int, n),
		zs:    make([]*big.Int, n),
		xs:    make([]*big.Int, n),
		edges: make([]*big.Int, n),
	}
	for i := 0; i < n; i++ {
		r, err := mathx.RandScalar(rand.Reader, sg.Q)
		if err != nil {
			panic(err)
		}
		ring.rs[i] = r
		ring.zs[i] = sg.Exp(r)
	}
	for i := 0; i < n; i++ {
		x, err := bdkey.XValue(ring.zs[(i+1)%n], ring.zs[(i-1+n)%n], ring.rs[i], sg.P)
		if err != nil {
			panic(err)
		}
		ring.xs[i] = x
		ring.edges[i] = new(big.Int).Exp(ring.zs[(i-1+n)%n], ring.rs[i], sg.P)
	}
	return ring
}

// accelBatch builds a valid n-signer GQ batch over the environment's
// parameters.
func (e *Env) accelBatch(n int) (pub gq.Params, ids []string, responses []*big.Int, c, z *big.Int, err error) {
	pub = gq.ParamsFrom(e.Set.Public().RSA)
	ids = make([]string, n)
	taus := make([]*big.Int, n)
	ts := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("A%03d", i+1)
		taus[i], ts[i], err = gq.Commitment(rand.Reader, pub)
		if err != nil {
			return pub, nil, nil, nil, nil, err
		}
	}
	z = big.NewInt(97)
	c = gq.GroupChallenge(mathx.ProductMod(ts, pub.N), z)
	responses = make([]*big.Int, n)
	for i := range ids {
		sk, err := e.PKG.ExtractGQ(ids[i])
		if err != nil {
			return pub, nil, nil, nil, nil, err
		}
		responses[i] = sk.Respond(taus[i], c)
	}
	return pub, ids, responses, c, z, nil
}

// accelClaims builds j settlement claims, one per synthetic group of the
// given size, the way serve.Host's verify queue would see them: each
// group's claim comes from its own roster, challenge and commitment
// product, built through the engine's cached claim-builder path.
func (e *Env) accelClaims(j, size int) ([]*gq.Claim, error) {
	pub := gq.ParamsFrom(e.Set.Public().RSA)
	claims := make([]*gq.Claim, 0, j)
	for g := 0; g < j; g++ {
		ids := make([]string, size)
		taus := make([]*big.Int, size)
		ts := make([]*big.Int, size)
		var err error
		for i := 0; i < size; i++ {
			ids[i] = fmt.Sprintf("G%02d-M%02d", g, i)
			if taus[i], ts[i], err = gq.Commitment(rand.Reader, pub); err != nil {
				return nil, err
			}
		}
		bigT := mathx.ProductMod(ts, pub.N)
		z, err := mathx.RandUnit(rand.Reader, pub.N)
		if err != nil {
			return nil, err
		}
		c := gq.GroupChallenge(bigT, z)
		responses := make([]*big.Int, size)
		for i := range ids {
			sk, err := e.PKG.ExtractGQ(ids[i])
			if err != nil {
				return nil, err
			}
			responses[i] = sk.Respond(taus[i], c)
		}
		gv, err := gq.NewClaimBuilder(pub, ids)
		if err != nil {
			return nil, err
		}
		cl, err := gv.NewClaim(responses, c, bigT)
		if err != nil {
			return nil, err
		}
		claims = append(claims, cl)
	}
	return claims, nil
}

// accelInitialFlow times the member-side work of the initial flow for an
// n-member group at two scopes. "Key computation" is the keying material
// every member contributes — z_i = g^{r_i}, GQ commitment t_i = τ_i^e
// and authenticated response s_i = τ_i·S_i^c — exactly the operations
// the fixed-base tables target. "Member pipeline" is the complete member:
// those plus the round-2 X value, the finish-phase eq. 2 batch
// verification of the whole ring's GQ responses, and the eq. 3 key
// derivation. The pipeline ratio is bounded by the two irreducible
// variable-base powers every member owes per session (round-2 X plus the
// key edge — the serial path pays the same two as X plus z_{i-1}^{n·r_i}),
// which no table or domain trick removes; the gains come from everything
// around them. The serial path runs every member's naive computation
// sequentially; the accelerated path uses the precomputed tables, the
// cached group verifier and the Montgomery finish, and spreads the
// independent members over `workers` goroutines.
func (e *Env) accelInitialFlow(n, workers int, gTab *mathx.FixedBaseTable) (contrib, pipeline OpStat, err error) {
	sg := e.Set.Schnorr
	pub := gq.ParamsFrom(e.Set.Public().RSA)
	ring := buildAccelRing(sg, n)

	// Two independent key sets: the accelerated one carries tables.
	naiveKeys := make([]*gq.PrivateKey, n)
	fastKeys := make([]*gq.PrivateKey, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("M%03d", i+1)
		if naiveKeys[i], err = e.PKG.ExtractGQ(id); err != nil {
			return contrib, pipeline, err
		}
		if fastKeys[i], err = e.PKG.ExtractGQ(id); err != nil {
			return contrib, pipeline, err
		}
		fastKeys[i].Precompute()
	}
	taus := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		if taus[i], _, err = gq.Commitment(rand.Reader, pub); err != nil {
			return contrib, pipeline, err
		}
	}
	c, err := mathx.RandInt(rand.Reader, new(big.Int).Lsh(mathx.One, 160))
	if err != nil {
		return contrib, pipeline, err
	}

	// contribSerial/Accel: z_i = g^{r_i}, t_i = τ_i^e, s_i = τ_i·S_i^c.
	contribSerial := func(i int) {
		new(big.Int).Exp(sg.G, ring.rs[i], sg.P)
		new(big.Int).Exp(taus[i], pub.E, pub.N)
		naiveKeys[i].Respond(taus[i], c)
	}
	rsaMo := e.Set.RSA.Mont()
	contribAccel := func(i int) {
		gTab.Exp(ring.rs[i])
		if _, err := rsaMo.Exp(taus[i], pub.E); err != nil {
			panic(err)
		}
		fastKeys[i].Respond(taus[i], c)
	}
	// One GQ settlement batch shared by the pipeline measurement: in the
	// finish phase every member checks equation 2 over the whole ring's
	// responses. The serial side re-derives the roster's identity-hash
	// product on every check (the paper path); the accelerated side uses
	// the per-roster cached verifier the engine keeps per session.
	vPub, vIDs, vResponses, vc, vz, err := e.accelBatch(n)
	if err != nil {
		return contrib, pipeline, err
	}
	gv, err := gq.NewGroupVerifier(vPub, vIDs)
	if err != nil {
		return contrib, pipeline, err
	}

	// The pipeline variants additionally run the member's round-2 X value
	// and the whole finish phase — the eq. 2 batch verification of every
	// ring response and the eq. 3 key derivation — so the restructure is
	// charged end to end: the accelerated side pays BOTH round-2 powers
	// (z_{i+1}^{r_i} and z_{i-1}^{r_i}, on the Montgomery engine as the
	// engine's round 2 does) where the serial side pays one
	// inversion and one power, and in exchange its finish folds eq. 3 in
	// the Montgomery domain with no full-width exponentiation.
	mo := sg.Mont()
	pipelineSerial := func(i int) {
		contribSerial(i)
		if _, err := bdkey.XValue(ring.zs[(i+1)%n], ring.zs[(i-1+n)%n], ring.rs[i], sg.P); err != nil {
			panic(err)
		}
		if err := gq.BatchVerify(vPub, vIDs, vResponses, vc, vz); err != nil {
			panic(err)
		}
		if _, err := bdkey.Key(i, ring.rs[i], ring.zs[(i-1+n)%n], ring.xs, sg.P); err != nil {
			panic(err)
		}
	}
	pipelineAccel := func(i int) {
		contribAccel(i)
		a := mo.ExpElem(mo.ToMont(ring.zs[(i+1)%n]), ring.rs[i])
		edge := mo.ExpElem(mo.ToMont(ring.zs[(i-1+n)%n]), ring.rs[i])
		if _, err := bdkey.XFromPowers(mo.FromMont(a), mo.FromMont(edge), sg.P); err != nil {
			panic(err)
		}
		if err := gv.BatchVerify(vResponses, vc, vz); err != nil {
			panic(err)
		}
		xsM := make([]mathx.Elem, n)
		for j := range ring.xs {
			xsM[j] = mo.ToMont(ring.xs[j])
		}
		if _, err := bdkey.KeyFromEdgeMont(mo, i, edge, xsM); err != nil {
			panic(err)
		}
	}

	// allMembers runs one per-member function for the whole ring, spread
	// over `workers` goroutines when parallelism is enabled.
	allMembers := func(member func(int), parallel bool) func() {
		return func() {
			if !parallel || workers <= 1 {
				for i := 0; i < n; i++ {
					member(i)
				}
				return
			}
			var wg sync.WaitGroup
			next := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						member(i)
					}
				}()
			}
			for i := 0; i < n; i++ {
				next <- i
			}
			close(next)
			wg.Wait()
		}
	}

	stat := func(serial, accel func(int)) OpStat {
		s := measure(allMembers(serial, false))
		a := measure(allMembers(accel, true))
		return OpStat{SerialNS: s, AccelNS: a, Speedup: s / a}
	}
	return stat(contribSerial, contribAccel), stat(pipelineSerial, pipelineAccel), nil
}
