package protomc

// worlds.go instantiates concrete model worlds. Two families exist:
//
//   - generic collective worlds: every package-level function whose first
//     parameter is a *Proc and that transitively communicates is
//     instantiated for n in [2,5] processors, with every legal root when a
//     root parameter exists. Groups become the identity group [0..n),
//     payload vectors become small opaque vectors, tags become "t".
//
//   - engine worlds: the fault-tolerant multiplication engine is
//     instantiated exactly the way ftparallel.Multiply builds it (P=3, k=2,
//     F=1: a 1x3 worker grid, one linear-code row, one polynomial-code
//     processor — 7 ranks), for ldfs 0 and 1, plus the straggler-dropping
//     variant. Construction runs through the host interpreter (NewLayout)
//     and the native arithmetic bridge (points, matrices, the erasure code
//     and the interpolation table) so the instantiated engine matches the
//     real constructor bit for bit.
//
// Fault plans are not chosen here: the checker's first (fault-free) run
// records every (proc, phase, hit) barrier crossing, and the analyzer
// re-explores the world once per crossing with that single fail-stop
// injected — exactly the space machine/faultinject can express for one
// fault, which is what a layout with F=1 must tolerate.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"sync/atomic"

	"repro/internal/analysis/framework"
	"repro/internal/erasure"
	"repro/internal/points"
	"repro/internal/toom"
)

// worldNs are the processor counts generic collective worlds run at.
var worldNs = []int{2, 3, 4, 5}

// hostCall interprets a declared function outside any model processor:
// world construction evaluates the real constructors so instantiated state
// matches what the production wrappers build. The recovered error carries
// the interpreter's failure message.
func hostCall(sums *framework.Summaries, skels *framework.SkeletonSet, key string, recv Value, args []Value) (out []Value, err error) {
	node := sums.Graph.Nodes[key]
	if node == nil {
		return nil, fmt.Errorf("no declared function %s in the analyzed set", key)
	}
	var fuel atomic.Int64
	fuel.Store(defaultFuel)
	in := &interp{sums: sums, skels: skels, fuel: &fuel}
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(modelErr)
			if !ok {
				panic(r)
			}
			out, err = nil, fmt.Errorf("interpreting %s: %s", key, me.Msg)
		}
	}()
	return in.callDecl(node, recv, args, node.Decl.Pos()), nil
}

// hostErr extracts a trailing error result of a host call ("" when nil).
func hostErr(out []Value) string {
	if len(out) == 0 {
		return ""
	}
	if ev, ok := out[len(out)-1].(ErrVal); ok {
		return ev.Msg
	}
	return ""
}

// shortKey trims the import-path directory from a FuncKey:
// "repro/internal/collective.Broadcast" -> "collective.Broadcast".
func shortKey(key string) string {
	return key[strings.LastIndex(key, "/")+1:]
}

// instError reports a function the analyzer wanted to world-ify but could
// not — surfaced as a diagnostic, never silently skipped (vacuity guard).
type instError struct {
	key string
	pos token.Pos
	msg string
}

// collectiveWorlds builds the generic worlds for every communicating
// package-level Proc-first function declared in the pass's package, in
// source order. Functions with unmodelable call trees are the analyzer's
// job to report; they are not returned here.
func collectiveWorlds(pass *framework.Pass, sums *framework.Summaries, skels *framework.SkeletonSet) ([]*world, []instError) {
	var worlds []*world
	var errs []instError
	framework.FuncDecls(pass.Files, func(fd *ast.FuncDecl) {
		if fd.Recv != nil {
			return
		}
		fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig == nil || sig.Params().Len() == 0 {
			return
		}
		if framework.NamedTypeName(sig.Params().At(0).Type()) != "Proc" {
			return
		}
		key := framework.FuncKey(fn)
		if !skels.CommReach(key) {
			return
		}
		if ok, bl := skels.Modelable(key); !ok {
			errs = append(errs, instError{key: key, pos: fd.Pos(),
				msg: "cannot model communication skeleton: " + skels.DescribeBlockers(pass.Fset, bl)})
			return
		}
		node := sums.Graph.Nodes[key]
		if node == nil {
			return
		}
		ws, ie := funcWorlds(node, sig)
		worlds = append(worlds, ws...)
		if ie != nil {
			errs = append(errs, *ie)
		}
	})
	return worlds, errs
}

// funcWorlds instantiates one Proc-first function over every world size and
// every legal root.
func funcWorlds(node *framework.CGNode, sig *types.Signature) ([]*world, *instError) {
	key := node.Key
	pos := node.Decl.Pos()

	// Probe instantiability once (n=2, root=0): a parameter with no world
	// value is a finding, not a silent skip.
	if _, err := worldArgs(sig, 2, 0); err != nil {
		return nil, &instError{key: key, pos: pos, msg: err.Error()}
	}
	hasRoot := false
	params := sig.Params()
	for i := 1; i < params.Len(); i++ {
		if isRootParam(params.At(i)) {
			hasRoot = true
		}
	}

	var worlds []*world
	for _, n := range worldNs {
		roots := []int{0}
		if hasRoot {
			roots = roots[:0]
			for r := 0; r < n; r++ {
				roots = append(roots, r)
			}
		}
		for _, root := range roots {
			n, root := n, root
			name := fmt.Sprintf("%s n=%d", shortKey(key), n)
			if hasRoot {
				name = fmt.Sprintf("%s root=%d", name, root)
			}
			worlds = append(worlds, &world{
				name:          name,
				n:             n,
				pos:           pos,
				faultTolerant: true,
				run: func(in *interp, mp *modelProc) Value {
					args, err := worldArgs(sig, n, root)
					if err != nil {
						fail(pos, "%s", err.Error())
					}
					out := in.callDecl(node, nil, append([]Value{ProcVal{mp: mp}}, args...), pos)
					if len(out) == 0 {
						return NilVal{}
					}
					return out[len(out)-1]
				},
			})
		}
	}
	return worlds, nil
}

func isRootParam(p *types.Var) bool {
	b, ok := p.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0 &&
		strings.Contains(strings.ToLower(p.Name()), "root")
}

// worldArgs builds the arguments after the leading *Proc, fresh per
// processor (each rank owns its locals, exactly as on the machine).
func worldArgs(sig *types.Signature, n, root int) ([]Value, error) {
	params := sig.Params()
	out := make([]Value, 0, params.Len()-1)
	for i := 1; i < params.Len(); i++ {
		v, err := worldArg(params.At(i), n, root)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// worldArg picks the concrete world value for one parameter. The rules
// mirror how the production wrappers call the collectives: identity groups,
// parameter-named roots, small payload vectors, and one vector per
// destination for the multi-collectives (contribs may round-robin past n,
// so it gets n+1).
func worldArg(p *types.Var, n, root int) (Value, error) {
	name := strings.ToLower(p.Name())
	t := p.Type()
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsInteger != 0:
			if strings.Contains(name, "root") {
				return knownInt(int64(root)), nil
			}
			if strings.Contains(name, "weight") {
				return knownInt(2), nil
			}
			return knownInt(1), nil
		case info&types.IsString != 0:
			return knownStr("t"), nil
		case info&types.IsFloat != 0:
			return FloatVal{Known: true, V: 5}, nil
		case info&types.IsBoolean != 0:
			return knownBool(false), nil
		}
	case *types.Slice:
		if framework.NamedTypeName(t) == "Group" {
			return groupValue(n), nil
		}
		if _, deep := u.Elem().Underlying().(*types.Slice); deep {
			count := n
			if name == "contribs" {
				count = n + 1
			}
			vecs := make([]Value, count)
			for i := range vecs {
				vecs[i] = payloadVec(2)
			}
			return &SliceVal{Elems: vecs}, nil
		}
		return payloadVec(2), nil
	}
	return nil, fmt.Errorf("parameter %s %v has no world instantiation", p.Name(), t)
}

// groupValue is the identity group [0..n).
func groupValue(n int) *SliceVal {
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = knownInt(int64(i))
	}
	return &SliceVal{Elems: elems}
}

// payloadVec is a vector of opaque payload scalars.
func payloadVec(n int) *SliceVal {
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = opaque()
	}
	return &SliceVal{Elems: elems}
}

// engineVariant selects one fault-tolerant engine configuration.
type engineVariant struct {
	ldfs      int
	straggler bool
}

// engineVariants covers both BFS/DFS schedules and the straggler-dropping
// decision protocol. P=9 (a 3x3 grid) is within the checker's semantics but
// outside its time budget; the P=3 grid already exercises every protocol
// role (worker, linear-code row, polynomial-code column).
var engineVariants = []engineVariant{
	{ldfs: 0},
	{ldfs: 1},
	{ldfs: 0, straggler: true},
}

// engineWorlds instantiates the generic engine's SPMD body, loaded with the
// Toom workload exactly as ftparallel.Multiply builds it, for each variant.
// Returns nothing when the pass's package is not the engine's (the key
// gate below fails for fixtures and for the collective package).
func engineWorlds(pass *framework.Pass, sums *framework.Summaries, skels *framework.SkeletonSet) ([]*world, []instError) {
	runKey := pass.Path + ".exec.runRank"
	runNode := sums.Graph.Nodes[runKey]
	if runNode == nil || runNode.Pkg.Path != pass.Path {
		return nil, nil
	}
	if ok, bl := skels.Modelable(runKey); !ok {
		return nil, []instError{{key: runKey, pos: runNode.Decl.Pos(),
			msg: "cannot model communication skeleton: " + skels.DescribeBlockers(pass.Fset, bl)}}
	}
	var worlds []*world
	var errs []instError
	for _, v := range engineVariants {
		w, err := buildEngineWorld(pass.Path, sums, skels, runNode, v)
		if err != nil {
			errs = append(errs, instError{key: runKey, pos: runNode.Decl.Pos(), msg: err.Error()})
			continue
		}
		worlds = append(worlds, w)
	}
	return worlds, errs
}

// toomPkg is the package whose Workload instantiation loads the engine
// worlds: the engine itself lives in pkg (ftengine), the workload methods
// in the Toom tier.
const toomPkg = "repro/internal/ftparallel"

// buildEngineWorld mirrors ftparallel.Multiply's construction for
// P=3, k=2, F=1 and the variant's DFS depth: layout via the host
// interpreter, algorithm/points/matrices/code/interpolation table via the
// native bridge, operand digit shares as opaque vectors in the plan's cyclic
// layout. The entry is the generic engine's per-rank body with the Toom
// workload behind its Workload interface — the same seam the production
// Run crosses — so the model exercises the devirtualized dispatch too.
func buildEngineWorld(pkg string, sums *framework.Summaries, skels *framework.SkeletonSet, runNode *framework.CGNode, v engineVariant) (*world, error) {
	const (
		p, k, f = 3, 2, 1
		lbfs    = 1 // log_{2k-1}(P) = log_3(3)
		shift   = 8 // any positive digit width: payloads are opaque
	)
	layOut, err := hostCall(sums, skels, pkg+".NewLayout", nil,
		[]Value{knownInt(p), knownInt(k), knownInt(f)})
	if err != nil {
		return nil, err
	}
	if msg := hostErr(layOut); msg != "" {
		return nil, fmt.Errorf("NewLayout: %s", msg)
	}
	lay, ok := layOut[0].(*StructVal)
	if !ok {
		return nil, fmt.Errorf("NewLayout returned %T, not a layout", layOut[0])
	}
	totOut, err := hostCall(sums, skels, pkg+".Layout.Total", lay, nil)
	if err != nil {
		return nil, err
	}
	total, ok := totOut[0].(IntVal)
	if !ok || !total.Known {
		return nil, fmt.Errorf("Layout.Total did not fold to a known rank count")
	}
	gp, ok := lay.Fields["GPrime"].(IntVal)
	if !ok || !gp.Known {
		return nil, fmt.Errorf("layout GPrime is not concrete")
	}

	alg, err := toom.New(k)
	if err != nil {
		return nil, err
	}
	pts := points.StandardWithRedundancy(k, f)
	uExt, err := toom.IntRows(points.EvalMatrix(pts, k))
	if err != nil {
		return nil, err
	}
	gen, err := toom.IntRows(points.EvalMatrix(pts, 2*k-1))
	if err != nil {
		return nil, err
	}
	table, err := erasure.NewTable(gen)
	if err != nil {
		return nil, err
	}
	denLCM, err := table.DenLCM()
	if err != nil {
		return nil, err
	}
	code, err := erasure.New(int(gp.V), f)
	if err != nil {
		return nil, err
	}

	levels := lbfs + v.ldfs
	digits := p
	for i := 0; i < levels; i++ {
		digits *= k
	}
	per := digits / p

	shares := func() Value {
		qs := make([]Value, p)
		for q := range qs {
			qs[q] = payloadVec(per)
		}
		return &SliceVal{Elems: qs}
	}
	plan := &StructVal{Type: "Plan", PkgPath: "repro/internal/parallel", Fields: map[string]Value{
		"alg":     NativeVal{V: alg},
		"k":       knownInt(k),
		"p":       knownInt(p),
		"lbfs":    knownInt(lbfs),
		"ldfs":    knownInt(int64(v.ldfs)),
		"levels":  knownInt(int64(levels)),
		"digits":  knownInt(int64(digits)),
		"shift":   knownInt(shift),
		"neg":     knownBool(false),
		"track":   knownBool(false),
		"sharesA": shares(),
		"sharesB": shares(),
	}}
	eng := &StructVal{Type: "engine", PkgPath: toomPkg, Fields: map[string]Value{
		"lay":            lay,
		"plan":           plan,
		"alg":            NativeVal{V: alg},
		"uExt":           fromNative(reflect.ValueOf(uExt), runNode.Decl.Pos()),
		"ldfs":           knownInt(int64(v.ldfs)),
		"levels":         knownInt(int64(levels)),
		"shift":          knownInt(shift),
		"digits":         knownInt(int64(digits)),
		"dropStragglers": knownBool(v.straggler),
		"slack":          FloatVal{Known: true, V: 5},
		"interp":         NativeVal{V: table},
		"denLCM":         knownInt(denLCM),
	}}

	// The Coder and exec mirror what NewCoder and Run build: the per-worker
	// coded vector length and the per-processor product share length follow
	// inputVecLen/productShareLen on the instantiated shape.
	kPow := 1
	for i := 0; i < v.ldfs; i++ {
		kPow *= k
	}
	coder := &StructVal{Type: "Coder", PkgPath: pkg, Fields: map[string]Value{
		"lay":     lay,
		"code":    NativeVal{V: code},
		"dataLen": knownInt(int64(2 * digits / p)),
		"prodLen": knownInt(int64(2 * (digits / kPow) / (k * int(gp.V)))),
	}}
	ex := &StructVal{Type: "exec", PkgPath: pkg, Fields: map[string]Value{
		"wl":             eng,
		"lay":            lay,
		"coder":          coder,
		"dropStragglers": knownBool(v.straggler),
	}}

	name := fmt.Sprintf("ftparallel.Multiply P=%d k=%d F=%d ldfs=%d", p, k, f, v.ldfs)
	if v.straggler {
		name += " straggler"
	}
	// The engine (and its interpolation table) is shared by all ranks and
	// runs: the scheduler executes one processor at a time, and the real
	// engine is likewise shared read-only across goroutines.
	return &world{
		name: name,
		n:    int(total.V),
		pos:  runNode.Decl.Pos(),
		// The straggler protocol aborts collectively when too few columns
		// answer on time — a legitimate exit, not a finding.
		faultTolerant: !v.straggler,
		run: func(in *interp, mp *modelProc) Value {
			out := in.callDecl(runNode, ex, []Value{ProcVal{mp: mp}}, runNode.Decl.Pos())
			if len(out) == 0 {
				return NilVal{}
			}
			return out[len(out)-1]
		},
	}, nil
}
