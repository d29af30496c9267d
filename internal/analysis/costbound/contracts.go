package costbound

// contracts.go models the machine boundary and the sequential arithmetic
// kernels. A contract is the cost model's axiom set: Send charges its
// payload words to S and one message to L, Recv charges R, Work charges F,
// Barrier charges the binomial-tree dissemination — exactly what
// machine/costacct charges at runtime, which the crosscheck suite pins.
// Everything below the charge sites (digit arithmetic, matrix inverses,
// point bookkeeping) is shape-only: contracts return unknowns of the right
// kind and the interpreter joins over any branch that depends on them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/framework"
)

const (
	hostFuel = 2_000_000
	rankFuel = 500_000
)

func callPos(call *ast.CallExpr) token.Pos {
	if call != nil {
		return call.Pos()
	}
	return token.NoPos
}

// methodContract handles methods of the boundary types, keyed by receiver
// type name so fixture stand-ins (a local `type Proc struct{}` with the
// same method names) follow the same axioms. Returns ok=false to fall
// through to interpretation / generic handling.
func (d *deriver) methodContract(recvType, name string, recvV *val, args []val, call *ast.CallExpr) (val, bool) {
	pos := callPos(call)
	rv := opaqueVal()
	if recvV != nil {
		rv = *recvV
	}
	switch recvType {
	case "Proc":
		return d.procContract(name, args, pos)
	case "Machine":
		if name == "Run" {
			if len(args) != 1 {
				d.fail(pos, "costbound: Machine.Run arity")
			}
			d.runMachine(rv, args[0], call)
		}
		return val{}, false
	case "Ints":
		if name == "Words" {
			if rv.k == kVec && rv.numOK {
				return numVal(rv.w), true
			}
			if rv.k == kVec || rv.k == kOpaque || rv.k == kMaybeNil {
				return unknownNum(), true
			}
			d.fail(pos, "costbound: Words of %s", rv.describe())
		}
		return val{}, false
	case "Meta":
		if name == "Words" {
			return intVal(1), true
		}
		return val{}, false
	case "Algorithm":
		return d.algContract(name, rv, args, pos)
	case "Int":
		switch name {
		case "WordLen":
			// Unit-word model: every digit occupies one machine word
			// (crosscheck worlds use small entries for exactly this reason).
			return intVal(1), true
		case "Add", "Sub":
			// Digit addition: the result's word measure is the operands'
			// maximum when both are known (1 in the unit-word model).
			if rv.k == kBig && rv.numOK && len(args) == 1 && args[0].k == kBig && args[0].numOK {
				return bigVal(framework.SymMaxMin1(rv.w, args[0].w)), true
			}
			return val{k: kBig}, true
		case "IsZero":
			return unknownBool(), true
		case "Sign", "BitLen", "Int64", "Cmp":
			return unknownNum(), true
		}
		return val{}, false
	}
	return val{}, false
}

func (d *deriver) procContract(name string, args []val, pos token.Pos) (val, bool) {
	switch name {
	case "ID":
		if d.symbolic {
			return unknownNum(), true
		}
		return intVal(d.rank), true
	case "P":
		if d.symbolic {
			d.fail(pos, "costbound: p.P() has no symbolic model")
		}
		return intVal(d.machineP), true
	case "Work":
		n := args[0]
		if n.k != kNum || !n.numOK {
			d.fail(pos, "costbound: Work with unknown operation count")
		}
		d.charge(costVec{F: n.num})
		return val{}, true
	case "Send":
		return d.sendContract(args, pos), true
	case "RecvInts", "Recv":
		return d.recvContract(args, pos), true
	case "Barrier":
		if d.symbolic {
			d.fail(pos, "costbound: Barrier has no symbolic model")
		}
		logP := ceilLog2(d.machineP)
		d.charge(costVec{
			S: framework.SymConst(logP),
			L: framework.SymConst(logP),
		})
		// Zero-fault worlds: no fault events, nil error.
		return tupleVal(sliceVal(nil), nilVal()), true
	case "Mark":
		return val{}, true
	case "Free":
		return val{}, true
	case "Store":
		return nilVal(), true
	case "Clock", "MemoryWords":
		return unknownNum(), true
	case "FaultCount":
		return intVal(0), true
	case "RecvDeadline":
		d.fail(pos, "costbound: RecvDeadline outside modeled (zero-fault) protocol")
	}
	return val{}, false
}

func ceilLog2(p int64) int64 {
	l := int64(0)
	for v := int64(1); v < p; v <<= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// sendContract charges S/L and, in concrete mode, records the payload words
// in the send log (the cross-rank shape channel of the fixpoint).
func (d *deriver) sendContract(args []val, pos token.Pos) val {
	if len(args) != 3 {
		d.fail(pos, "costbound: Send arity")
	}
	to, tag, payload := args[0], args[1], args[2]
	w, wKnown := payloadWords(payload)
	if d.symbolic {
		if !wKnown {
			d.fail(pos, "costbound: symbolic Send with unknown payload measure")
		}
		d.charge(costVec{S: w, L: framework.SymConst(1)})
		return nilVal()
	}
	if d.joinDepth > 0 {
		d.fail(pos, "costbound: Send under an undecided branch")
	}
	dst, ok := to.constInt()
	if !ok {
		d.fail(pos, "costbound: Send to unknown rank")
	}
	if !tag.sOK {
		d.fail(pos, "costbound: Send with unknown tag")
	}
	key := fmt.Sprintf("%d>%d|%s", d.rank, dst, tag.s)
	words := int64(-1) // unknown sentinel: poisons this pass, next pass refines
	if wKnown {
		if c, cok := w.IsConst(); cok {
			words = c
		}
	}
	if words < 0 {
		d.logMiss = true
		d.curLog[key] = append(d.curLog[key], -1)
		d.charge(costVec{L: framework.SymConst(1)})
		return nilVal()
	}
	d.curLog[key] = append(d.curLog[key], words)
	d.charge(costVec{S: framework.SymConst(words), L: framework.SymConst(1)})
	return nilVal()
}

func payloadWords(p val) (framework.SymExpr, bool) {
	switch p.k {
	case kVec:
		if p.numOK {
			return p.w, true
		}
		return framework.SymExpr{}, false
	case kStruct:
		if p.st != nil && p.st.typ == "Meta" {
			return framework.SymConst(1), true
		}
	}
	return framework.SymExpr{}, false
}

// recvContract returns (payload, error). In symbolic mode the SPMD-uniform
// assumption applies: every peer's payload has the caller's own measure
// spmdW. In concrete mode the send log of the previous pass supplies the
// measure; a miss marks the pass dirty and yields an unknown vector so
// interpretation continues (downstream lenRefine picks up the code's own
// validation constants).
func (d *deriver) recvContract(args []val, pos token.Pos) val {
	if len(args) != 2 {
		d.fail(pos, "costbound: Recv arity")
	}
	from, tag := args[0], args[1]
	if d.symbolic {
		d.charge(costVec{R: d.spmdW})
		return tupleVal(vecVal(d.spmdW), nilVal())
	}
	src, ok := from.constInt()
	if !ok {
		d.fail(pos, "costbound: Recv from unknown rank")
	}
	if !tag.sOK {
		d.fail(pos, "costbound: Recv with unknown tag")
	}
	key := fmt.Sprintf("%d>%d|%s", src, d.rank, tag.s)
	cur := d.recvCur[key]
	log := d.prevLog[key]
	if cur >= len(log) || log[cur] == -1 {
		d.logMiss = true
		d.recvCur[key] = cur + 1
		return tupleVal(unknownVec(), nilVal())
	}
	d.recvCur[key] = cur + 1
	w := log[cur]
	d.charge(costVec{R: framework.SymConst(w)})
	return tupleVal(vecVal(framework.SymConst(w)), nilVal())
}

// runMachine is the Machine.Run contract: interpret the SPMD program once
// per rank, collect per-rank costs/failures, then unwind — everything after
// Run on the host (assembly, verification) is unmetered by construction.
func (d *deriver) runMachine(mach val, prog val, call *ast.CallExpr) {
	if mach.k != kMachine || mach.mP <= 0 {
		d.fail(callPos(call), "costbound: Run on unmodeled machine")
	}
	d.machineP = mach.mP
	for r := int64(0); r < mach.mP; r++ {
		d.rank = r
		d.fuel = rankFuel
		d.cost = costVec{}
		// A failed rank leaves frame bookkeeping mid-flight; reset it so the
		// next rank starts clean (host state is rebuilt each fixpoint pass).
		d.depth, d.joinDepth = 0, 0
		d.loops, d.trails = nil, nil
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					if ie, ok := rec.(interpErr); ok {
						d.rankFail[r] = ie
						return
					}
					panic(rec)
				}
			}()
			d.callClosure(prog, []val{procVal(r)}, call)
			d.rankCosts[r] = d.cost
		}()
	}
	panic(doneSignal{})
}

// funcContract handles the few package functions whose shapes the
// interpreter needs beyond what genericContract can tell from a signature.
func (d *deriver) funcContract(pkgName, name string, args []val, call *ast.CallExpr) (val, bool) {
	pos := callPos(call)
	switch pkgName {
	case "machine":
		if name == "New" {
			cfg := args[0]
			if cfg.k != kStruct {
				d.fail(pos, "costbound: machine.New with unmodeled config")
			}
			p, ok := cfg.st.fields["P"].constInt()
			if !ok {
				d.fail(pos, "costbound: machine.New with unknown P")
			}
			if len(args) > 1 && nilness(args[1]) != triTrue {
				d.fail(pos, "costbound: machine.New with a fault plan (faulty worlds are model-checked, not cost-certified)")
			}
			return tupleVal(val{k: kMachine, mP: p}, nilVal()), true
		}
	case "toom":
		if name == "Recompose" {
			// The recomposed scalar carries the share's word measure so the
			// leaf's MulWithStats charge is len(a)·len(b).
			if args[0].k == kVec && args[0].numOK {
				return bigVal(args[0].w), true
			}
			return val{k: kBig}, true
		}
	case "points":
		if name == "StandardWithRedundancy" {
			k, ok1 := args[0].constInt()
			f, ok2 := args[1].constInt()
			if !ok1 || !ok2 {
				d.fail(pos, "costbound: StandardWithRedundancy with unknown k/f")
			}
			n := 2*k - 1 + f
			elems := make([]val, n)
			for i := range elems {
				elems[i] = opaqueVal()
			}
			return sliceVal(elems), true
		}
	case "fmt":
		switch name {
		case "Sprintf", "Sprint":
			if s, ok := renderFmt(name, args); ok {
				return strVal(s), true
			}
			return val{k: kStr}, true
		case "Errorf":
			return opaqueVal(), true
		}
	case "sort":
		switch name {
		case "Ints", "Slice":
			// Ordering never affects counts; elements stay in place.
			return val{}, true
		}
	}
	return val{}, false
}

// renderFmt runs the real fmt over concretized abstract values, so cache
// keys and message tags built with Sprintf/Sprint ("code1/%d/%d",
// fmt.Sprint(survivors)) render exactly as at runtime.
func renderFmt(name string, args []val) (string, bool) {
	conc := make([]any, 0, len(args))
	for i, a := range args {
		c, ok := concretize(a)
		if !ok {
			return "", false
		}
		if name == "Sprintf" && i == 0 {
			s, sok := c.(string)
			if !sok {
				return "", false
			}
			conc = append(conc, s)
			continue
		}
		conc = append(conc, c)
	}
	if name == "Sprintf" {
		if len(conc) == 0 {
			return "", false
		}
		return fmt.Sprintf(conc[0].(string), conc[1:]...), true
	}
	return fmt.Sprint(conc...), true
}

func concretize(v val) (any, bool) {
	switch v.k {
	case kNum:
		c, ok := v.constInt()
		if !ok {
			return nil, false
		}
		return c, true
	case kStr:
		if v.sOK {
			return v.s, true
		}
	case kBool:
		if v.bOK {
			return v.b, true
		}
	case kSlice:
		out := make([]int64, len(v.elems))
		for i, e := range v.elems {
			c, ok := e.constInt()
			if !ok {
				return nil, false
			}
			out[i] = c
		}
		return out, true
	}
	return nil, false
}

// genericContract shapes an unmodeled callee's result purely from its
// signature: helpers succeed (nil errors), vectors and scalars come back
// with unknown measures, and the interpreter joins over whatever depends
// on them.
func (d *deriver) genericContract(sig *types.Signature, pos token.Pos) val {
	res := sig.Results()
	switch res.Len() {
	case 0:
		return val{}
	case 1:
		return d.genericResult(res.At(0).Type())
	}
	vals := make([]val, res.Len())
	for i := range vals {
		vals[i] = d.genericResult(res.At(i).Type())
	}
	return tupleVal(vals...)
}

func (d *deriver) genericResult(t types.Type) val {
	name := framework.NamedTypeName(t)
	if name == "error" {
		return nilVal()
	}
	if isIntVecType(t) {
		return unknownVec()
	}
	if name == "Int" {
		return unitBig()
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		info := b.Info()
		switch {
		case info&(types.IsInteger|types.IsFloat) != 0:
			return unknownNum()
		case info&types.IsBoolean != 0:
			return unknownBool()
		case info&types.IsString != 0:
			return val{k: kStr}
		}
	}
	return opaqueVal()
}

// algContract models toom.Algorithm: k is the one shape parameter; the
// matrices are opaque coefficient sources; MulWithStats reports the
// schoolbook word-operation count the leaf charges.
func (d *deriver) algContract(name string, rv val, args []val, pos token.Pos) (val, bool) {
	kField := func() framework.SymExpr {
		if rv.k == kStruct && rv.st != nil {
			if kv, ok := rv.st.fields["k"]; ok && kv.k == kNum && kv.numOK {
				return kv.num
			}
		}
		d.fail(pos, "costbound: Algorithm with unknown k")
		return framework.SymExpr{}
	}
	switch name {
	case "K":
		return numVal(kField()), true
	case "NumProducts":
		return numVal(kField().Scale(2).Sub(framework.SymConst(1))), true
	case "U":
		return opaqueVal(), true
	case "WScaled":
		return tupleVal(opaqueVal(), unknownNum()), true
	case "MulWithStats":
		if len(args) == 3 && args[2].k == kStruct && args[2].st != nil {
			wa, wb := framework.SymExpr{}, framework.SymExpr{}
			ok := false
			if args[0].k == kBig && args[0].numOK && args[1].k == kBig && args[1].numOK {
				wa, wb = args[0].w, args[1].w
				ok = true
			}
			if !ok {
				d.fail(pos, "costbound: MulWithStats with unknown operand measures")
			}
			args[2].st.fields["WordOps"] = numVal(wa.Mul(wb))
		}
		return val{k: kBig}, true
	case "Mul":
		return val{k: kBig}, true
	}
	return val{}, false
}

var _ = sort.Ints
