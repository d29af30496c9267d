package ftparallel

import (
	"fmt"

	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/ftengine"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/points"
	"repro/internal/toom"
)

// Options configures a fault-tolerant parallel multiplication.
type Options struct {
	// Alg is the Toom-Cook-k bilinear form.
	Alg *toom.Algorithm
	// P is the worker count; must be a power of 2k-1. Code processors are
	// added on top (Layout.ExtraProcessors).
	P int
	// F is the number of faults to tolerate.
	F int
	// DFSSteps is the sequential prefix (limited-memory case, Lemma 3.1).
	DFSSteps int
	// LeafFactor as in parallel.Options.
	LeafFactor int
	// Machine configures α/β/γ and memory; Machine.P is overridden.
	Machine machine.Config
	// Faults is the injection plan. Valid phases: PhaseEval (input data
	// lost, recovered by the linear code), PhaseMul (product lost, column
	// halted under the polynomial code), PhaseInterp (product data lost,
	// recovered by the re-created linear code). With DFS steps, hit h of
	// PhaseMul/PhaseInterp addresses the h-th sub-problem barrier.
	Faults []machine.Fault

	// DropStragglers switches the engine into delay-fault mitigation mode
	// (the paper's third fault category): the redundant evaluation-point
	// columns absorb *slow* processors instead of dead ones. Each grid row
	// elects its first column as decider; after its own sub-problem the
	// decider waits StragglerSlack virtual time units for the other
	// columns' completion reports and interpolates from the first 2k-1
	// on-time columns. No barriers, no hard-fault injection, no linear
	// coding in this mode — combine Machine.SpeedFactors with it.
	DropStragglers bool
	// StragglerSlack is the decider's deadline slack in virtual time units
	// (required > 0 when DropStragglers is set).
	StragglerSlack float64
}

// Result reports a fault-tolerant run.
type Result struct {
	Product bigint.Int
	Report  *machine.Report
	Layout  Layout
	// DeadColumns lists extended-grid columns halted by multiplication-
	// phase faults (across all DFS sub-problems).
	DeadColumns []int
	// Recovered counts data-loss events repaired by the linear code.
	Recovered int
}

// engine is the Toom-Cook instantiation of ftengine.Workload: the per-run
// immutable state shared by all processors.
type engine struct {
	lay    Layout
	plan   *parallel.Plan
	alg    *toom.Algorithm
	uExt   [][]int64 // (2k-1+f)×k extended evaluation matrix
	ldfs   int
	levels int
	shift  int
	digits int

	dropStragglers bool
	slack          float64

	// interp holds the scaled interpolation matrix of every (2k-1)-subset
	// of the extended points ("calculated on the fly", Section 4.2, but
	// precomputed once and shared read-only by every rank); denLCM is the
	// lcm of their denominators, the common scale of every top-level fold.
	interp *erasure.Table
	denLCM int64
}

// Multiply runs the paper's fault-tolerant parallel Toom-Cook (mixed linear
// + polynomial coding, Theorem 5.2) on the generic FT engine.
func Multiply(a, b bigint.Int, opts Options) (*Result, error) {
	if opts.Alg == nil {
		return nil, fmt.Errorf("ftparallel: Options.Alg is required")
	}
	k := opts.Alg.K()
	lay, err := NewLayout(opts.P, k, opts.F)
	if err != nil {
		return nil, err
	}
	pts := points.StandardWithRedundancy(k, opts.F)
	uExt, err := toom.IntRows(points.EvalMatrix(pts, k))
	if err != nil {
		return nil, fmt.Errorf("ftparallel: extended evaluation matrix: %w", err)
	}
	gen, err := toom.IntRows(points.EvalMatrix(pts, 2*k-1))
	if err != nil {
		return nil, fmt.Errorf("ftparallel: product evaluation matrix: %w", err)
	}
	// Inverting every surviving subset also proves the redundant point set
	// valid (Section 4.2: any f erasures leave an invertible system).
	interp, err := erasure.NewTable(gen)
	if err != nil {
		return nil, fmt.Errorf("ftparallel: redundant point set invalid: %w", err)
	}
	denLCM, err := interp.DenLCM()
	if err != nil {
		return nil, fmt.Errorf("ftparallel: interpolation denominators: %w", err)
	}
	plan, err := parallel.NewPlan(a, b, parallel.Options{
		Alg:        opts.Alg,
		P:          opts.P,
		DFSSteps:   opts.DFSSteps,
		LeafFactor: opts.LeafFactor,
	})
	if err != nil {
		return nil, err
	}
	var code *erasure.Code
	if opts.F > 0 {
		code, err = erasure.New(lay.GPrime, opts.F)
		if err != nil {
			return nil, err
		}
	}
	if opts.DropStragglers {
		if opts.StragglerSlack <= 0 {
			return nil, fmt.Errorf("ftparallel: DropStragglers requires StragglerSlack > 0")
		}
		if len(opts.Faults) > 0 {
			return nil, fmt.Errorf("ftparallel: straggler mode does not combine with hard-fault injection")
		}
	}
	e := &engine{
		lay:    lay,
		plan:   plan,
		alg:    opts.Alg,
		uExt:   uExt,
		ldfs:   opts.DFSSteps,
		levels: plan.Levels(),
		shift:  plan.Shift(),
		digits: pow(k, plan.Levels()) * maxInt(opts.LeafFactor, 1) * opts.P,
		interp: interp,
		denLCM: denLCM,
	}
	e.dropStragglers = opts.DropStragglers
	e.slack = opts.StragglerSlack
	coder := ftengine.NewCoder(lay, code, e.inputVecLen(), e.productShareLen())
	res, err := ftengine.Run(e, ftengine.RunOptions{
		Layout:         lay,
		Coder:          coder,
		Machine:        opts.Machine,
		Faults:         opts.Faults,
		DropStragglers: opts.DropStragglers,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Product:     res.Output[0],
		Report:      res.Report,
		Layout:      lay,
		DeadColumns: res.Dead,
		Recovered:   res.Recovered,
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// inputVecLen is the length of the concatenated per-worker input vector.
func (e *engine) inputVecLen() int { return 2 * e.digits / e.lay.P }

// productShareLen is the per-processor child-product share length at the
// coded BFS step.
func (e *engine) productShareLen() int {
	k := e.alg.K()
	lenTotal := e.digits / pow(k, e.ldfs)
	return 2 * lenTotal / (k * e.lay.GPrime)
}

// Shard packs a worker's top-level input shares into the flat coded vector
// the engine's linear code protects (Section 4.1, "Code creation"). Code
// processors hold no input.
func (e *engine) Shard(rank int) []bigint.Int {
	if rank >= e.lay.P {
		return nil
	}
	a, b := e.plan.InputShares(rank)
	return concat(a, b)
}

// Step is the SPMD compute body: the coded BFS/DFS traversal over the
// recursion tree, entered after the engine's coded prologue restored any
// evaluation-phase victims.
func (e *engine) Step(p *machine.Proc, rk *ftengine.Rank) (ftengine.Slots, error) {
	var myA, myB []bigint.Int
	if p.ID() < e.lay.P {
		half := len(rk.Ctx.Data) / 2
		myA, myB = rk.Ctx.Data[:half], rk.Ctx.Data[half:]
	}
	return e.node(p, 0, nil, myA, myB, rk)
}

// Decode passes the gathered slots through: multiplication-phase faults are
// routed around inside the step (halted columns contribute no shares), so
// the gathered slots are already decodable.
func (e *engine) Decode(dead []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	return slots, nil
}

// node handles one recursion level of the fault-tolerant schedule: DFS
// levels iterate the 2k-1 sub-problems sequentially (each independently
// protected), and the level at depth ldfs is the coded BFS step.
func (e *engine) node(p *machine.Proc, level int, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	if level < e.ldfs {
		return e.dfsLevel(p, level, dfsPath, myA, myB, rk)
	}
	return e.bfsStep(p, dfsPath, myA, myB, rk)
}

// dfsLevel runs the 2k-1 sub-problems sequentially on all processors.
// Evaluation is local for workers; the interpolation accumulates into
// per-slot shares. The linear code processors' codewords commute with the
// (linear) evaluation, so the column code remains decodable at every depth.
func (e *engine) dfsLevel(p *machine.Proc, level int, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	k := e.alg.K()
	lay := e.lay
	lenTotal := e.digits / pow(k, level)
	lq := lenTotal / (k * lay.P)
	wNum, _ := e.alg.WScaled()

	acc := ftengine.Slots{}
	for j := 0; j < 2*k-1; j++ {
		var evalA, evalB []bigint.Int
		if p.ID() < lay.P {
			evalA = parallel.EvalRow(p, e.alg.U()[j], myA, k)
			evalB = parallel.EvalRow(p, e.alg.U()[j], myB, k)
		}
		child, err := e.node(p, level+1, append(dfsPath, j), evalA, evalB, rk)
		if err != nil {
			return nil, err
		}
		// Accumulate W^T column j into the per-slot coefficient shares.
		for slot, share := range child {
			out, ok := acc[slot]
			if !ok {
				out = make([]bigint.Int, 2*lenTotal/lay.P)
				acc[slot] = out
			}
			parallel.AccumulateColumn(p, out, wNum, j, share, k, lq)
		}
	}
	return acc, nil
}

// bfsStep is the coded parallel step: extended evaluation over 2k-1+f
// points, plain column subtrees, code re-creation, and interpolation from
// the surviving columns.
func (e *engine) bfsStep(p *machine.Proc, dfsPath []int, myA, myB []bigint.Int, rk *ftengine.Rank) (ftengine.Slots, error) {
	lay := e.lay
	k := e.alg.K()
	cols := lay.Cols()
	numCols := lay.NumColumns()
	gP := lay.GPrime
	rank := p.ID()
	lenTotal := e.digits / pow(k, e.ldfs)
	tag := pathTag(dfsPath)

	myCol, inGrid := lay.ColumnOf(rank)
	myRow, _ := lay.RowOf(rank)
	isWorker := rank < lay.P

	// Extended evaluation and within-row redistribution: workers compute
	// slices for all 2k-1+f points; column j's slice goes to the row-mate
	// in extended column j (code columns included — Figure 2).
	var childA, childB []bigint.Int
	var selfSlice []bigint.Int
	if isWorker {
		for j := 0; j < numCols; j++ {
			sa := parallel.EvalRow(p, e.uExt[j], myA, k)
			sb := parallel.EvalRow(p, e.uExt[j], myB, k)
			payload := concat(sa, sb)
			dst := lay.ColumnRank(myRow, j)
			if dst == rank {
				selfSlice = payload
				continue
			}
			if err := p.Send(dst, tag+"/down", machine.Ints(payload)); err != nil {
				return nil, err
			}
		}
	}
	if inGrid {
		per := lenTotal / (k * lay.P) // entries per received slice, per operand
		childA = make([]bigint.Int, per*cols)
		childB = make([]bigint.Int, per*cols)
		for c := 0; c < cols; c++ {
			src := lay.Worker(myRow, c)
			var got machine.Ints
			if src == rank {
				got = machine.Ints(selfSlice)
			} else {
				var err error
				got, err = p.RecvInts(src, tag+"/down")
				if err != nil {
					return nil, err
				}
			}
			if len(got) != 2*per {
				return nil, fmt.Errorf("ftparallel: slice length %d, want %d", len(got), 2*per)
			}
			for t := 0; t < per; t++ {
				childA[c+t*cols] = got[t]
				childB[c+t*cols] = got[per+t]
			}
		}
	}

	// Faults during the multiplication stage: the polynomial code absorbs
	// them — the affected column is halted (Section 4.2, "Fault recovery":
	// "we halt the execution of the remaining processors of its column").
	deadCols := map[int]bool{}
	if !e.dropStragglers {
		ev, err := p.Barrier(PhaseMul)
		if err != nil {
			return nil, err
		}
		for _, f := range ev {
			if c, ok := lay.ColumnOf(f.Proc); ok {
				deadCols[c] = true
				rk.DeadSeen[c] = true
			}
		}
		if numCols-len(deadCols) < cols {
			return nil, fmt.Errorf("ftparallel: %w: %d columns lost, tolerance f=%d exceeded", ftengine.ErrToleranceExceeded, len(deadCols), lay.F)
		}
		// Victims also lost their top-level inputs; restore them (linear
		// code) so later DFS sub-problems can proceed.
		if err := rk.Coder.RecoverData(p, ev, rk.Ctx); err != nil {
			return nil, err
		}
		rk.Recovered += len(ev)
		if isWorker && len(dfsPath) > 0 {
			// A restored worker replays its (local, linear) evaluation
			// chain from the recovered inputs. The replay is deterministic,
			// so the result is bit-identical to the lost state; what this
			// step needs from it is the charged recomputation cost — the
			// shares themselves are not read again in this BFS step (the
			// interpolation below consumes only the child products).
			for _, fe := range ev {
				if fe.Proc == rank {
					e.replayEvalPath(p, dfsPath)
				}
			}
		}
	}
	var err error

	// Column subtrees: every live grid column solves its sub-problem with
	// the plain parallel engine (standard Parallel Toom-Cook from here on,
	// Section 4.2).
	myColAlive := inGrid && !deadCols[myCol]
	var childProd []bigint.Int
	if myColAlive {
		colGroup := make(collective.Group, gP)
		for r := 0; r < gP; r++ {
			colGroup[r] = lay.ColumnRank(r, myCol)
		}
		childProd, err = e.plan.Node(p, colGroup, childA, childB, e.ldfs+1, fmt.Sprintf("ft%s.%d", tag, myCol))
		if err != nil {
			return nil, err
		}
	}

	var surv []int
	if e.dropStragglers {
		// Delay-fault mitigation: each row's decider interpolates from the
		// first 2k-1 columns whose completion reports arrive within the
		// slack; slower columns are simply not waited for — the redundant
		// evaluation points stand in for them exactly as they do for dead
		// columns.
		var late []int
		dec := ftengine.Straggler{Lay: e.lay, Slack: e.slack}
		surv, late, err = dec.DecideOnTime(p, myRow, myCol, inGrid, tag)
		if err != nil {
			return nil, err
		}
		if inGrid {
			chosenSet := map[int]bool{}
			for _, c := range surv {
				chosenSet[c] = true
			}
			for c := 0; c < numCols; c++ {
				if !chosenSet[c] {
					deadCols[c] = true
				}
			}
			// Only columns that actually missed the deadline are reported
			// as dropped; an unused on-time redundant column is not a
			// straggler.
			for _, c := range late {
				rk.DeadSeen[c] = true
			}
		}
	} else {
		// Code re-creation (Section 4.1: "Each BFS step initiates a new
		// code creation process"): live worker columns encode their child
		// products onto the code rows, protecting the interpolation stage.
		prodCode, err := rk.Coder.CreateProductCode(p, deadCols, childProd, tag)
		if err != nil {
			return nil, err
		}

		// Faults during the interpolation stage: rebuild lost product data
		// from the fresh code.
		ev2, err := p.Barrier(PhaseInterp)
		if err != nil {
			return nil, err
		}
		childProd, err = rk.Coder.RecoverProducts(p, ev2, deadCols, childProd, prodCode, tag)
		if err != nil {
			return nil, err
		}
		rk.Recovered += len(ev2)
		// Interpolation-phase faults on polynomial-code columns are not
		// covered by the worker-column code; treat those columns as dead.
		for _, f := range ev2 {
			if c, ok := lay.ColumnOf(f.Proc); ok && c >= cols {
				deadCols[c] = true
				rk.DeadSeen[c] = true
			}
		}
		if numCols-len(deadCols) < cols {
			return nil, fmt.Errorf("ftparallel: %w: columns lost at interpolation, tolerance exceeded", ftengine.ErrToleranceExceeded)
		}
		// Restore victims' inputs for subsequent DFS sub-problems.
		if err := rk.Coder.RecoverData(p, ev2, rk.Ctx); err != nil {
			return nil, err
		}

		// Surviving-column selection and on-the-fly interpolation matrix
		// (Section 4.2, Correctness: "the interpolation matrix is
		// calculated on the fly according to the evaluation points of the
		// finished sub-problems").
		surv = survivors(numCols, deadCols, cols)
	}
	if !inGrid {
		// Linear-code processors hold no product share.
		return ftengine.Slots{}, nil
	}
	w, err := e.interp.Minor(surv)
	if err != nil {
		return nil, err
	}

	// Upward redistribution among the surviving (virtual) grid and local
	// fold, mirroring the plain engine.
	myVirtual := -1
	for v, c := range surv {
		if c == myCol && myColAlive {
			myVirtual = v
		}
	}
	if myVirtual < 0 {
		// Halted columns, unused live columns and code rows hold no share.
		return ftengine.Slots{}, nil
	}
	per := len(childProd) / cols // entries per class
	var selfUp []bigint.Int
	for v := 0; v < cols; v++ {
		slice := make([]bigint.Int, 0, per)
		for u := v; u < len(childProd); u += cols {
			slice = append(slice, childProd[u])
		}
		dst := lay.ColumnRank(myRow, surv[v])
		if dst == rank {
			selfUp = slice
			continue
		}
		if err := p.Send(dst, tag+"/up", machine.Ints(slice)); err != nil {
			return nil, err
		}
	}
	slices := make([][]bigint.Int, cols)
	for j := 0; j < cols; j++ {
		src := lay.ColumnRank(myRow, surv[j])
		if src == rank {
			slices[j] = selfUp
			continue
		}
		got, err := p.RecvInts(src, tag+"/up")
		if err != nil {
			return nil, err
		}
		slices[j] = got
	}
	out := e.fold(p, slices, w, lenTotal)
	slot := myRow + myVirtual*gP
	return ftengine.Slots{slot: out}, nil
}

// fold runs parallel's interpolation fold with the surviving set's scaled
// matrix, then rescales to denLCM so results of DFS sub-problems that lost
// different columns stay compatible. Only the recomposed value, not each
// redundant digit, is divisible, so Recombine divides denLCM out once.
func (e *engine) fold(p *machine.Proc, slices [][]bigint.Int, w *erasure.Minor, lenTotal int) []bigint.Int {
	lay := e.lay
	out := parallel.Fold(p, w.Rows, slices, lenTotal/(e.alg.K()*lay.P), 2*lenTotal/lay.P)
	if scale := e.denLCM / w.Den; scale != 1 {
		var work int64
		for i := range out {
			if !out[i].IsZero() {
				out[i] = out[i].MulInt64(scale)
				work += wordsOf(out[i])
			}
		}
		p.Work(work)
	}
	return out
}

// survivors picks the first `need` live extended columns.
func survivors(numCols int, dead map[int]bool, need int) []int {
	out := make([]int, 0, need)
	for c := 0; c < numCols && len(out) < need; c++ {
		if !dead[c] {
			out = append(out, c)
		}
	}
	return out
}

// pathTag names a DFS path for message tags.
func pathTag(path []int) string {
	s := "t"
	for _, j := range path {
		s += fmt.Sprintf(".%d", j)
	}
	return s
}

// replayEvalPath recomputes a restored worker's evaluation chain from its
// (recovered) top-level input shares — purely local linear work, charged.
func (e *engine) replayEvalPath(p *machine.Proc, path []int) {
	a, b := e.plan.InputShares(p.ID())
	k := e.alg.K()
	for _, j := range path {
		a = parallel.EvalRow(p, e.alg.U()[j], a, k)
		b = parallel.EvalRow(p, e.alg.U()[j], b, k)
	}
}

func concat(a, b []bigint.Int) []bigint.Int {
	out := make([]bigint.Int, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

func wordsOf(x bigint.Int) int64 {
	if l := int64(x.WordLen()); l > 0 {
		return l
	}
	return 1
}

// Recombine assembles the decoded slot shares into the product (unmetered
// read-out): interleave the per-slot coefficient shares, recompose, and
// normalize the deferred denominators.
func (e *engine) Recombine(perSlot map[int][]bigint.Int) ([]bigint.Int, error) {
	lay := e.lay
	var shareLen int
	for _, s := range perSlot {
		shareLen = len(s)
		break
	}
	full := make([]bigint.Int, shareLen*lay.P)
	for slot, share := range perSlot {
		if len(share) != shareLen {
			return nil, fmt.Errorf("ftparallel: ragged slot shares")
		}
		for u, v := range share {
			full[slot+u*lay.P] = v
		}
	}
	z := toom.Recompose(full, e.shift)
	_, wDen := e.alg.WScaled()
	// The top BFS fold carries the common denominator lcm; the lbfs-1 plain
	// levels below and the ldfs DFS levels above each deferred one factor
	// of the standard denominator.
	z = z.DivExactInt64(e.denLCM)
	for i := 0; i < e.levels-1; i++ {
		z = z.DivExactInt64(wDen)
	}
	if e.neg() {
		z = z.Neg()
	}
	return []bigint.Int{z}, nil
}

// neg reports whether the product is negative.
func (e *engine) neg() bool { return e.plan.Negative() }
