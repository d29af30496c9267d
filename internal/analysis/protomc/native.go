package protomc

// native.go bridges the interpreter to the real arithmetic packages. The
// protocol layers (collective, ftparallel, parallel) are interpreted; the
// numeric kernels they call (bigint, toom, points, mat, rat, erasure) run
// natively via reflection so that protocol-relevant outputs — interpolation
// matrices, Vandermonde rows, evaluation point sets — are bit-exact. Calls
// whose arguments are opaque payload data cannot run natively; they fall
// back to a result-typed abstraction (big integers stay opaque, error
// results are assumed nil under the local-failure-free assumption).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"repro/internal/bigint"
	"repro/internal/erasure"
	"repro/internal/points"
	"repro/internal/rat"
	"repro/internal/toom"
)

// nativeBridgedPkg reports whether a package's declared functions are
// executed natively rather than interpreted.
func nativeBridgedPkg(path string) bool {
	switch path[strings.LastIndex(path, "/")+1:] {
	case "bigint", "toom", "points", "erasure", "mat", "rat":
		return true
	}
	return false
}

// nativeRegistry maps FuncKeys of package-level bridged functions to the
// real implementations. Only functions whose arguments are protocol-concrete
// (ranks, sizes, survivor sets, point lists) need to be here; everything
// else resolves through the result-typed fallback.
var nativeRegistry = map[string]any{
	"repro/internal/erasure.New":                   erasure.New,
	"repro/internal/points.EvalMatrix":             points.EvalMatrix,
	"repro/internal/points.Finite":                 points.Finite,
	"repro/internal/points.FiniteInt64":            points.FiniteInt64,
	"repro/internal/points.Infinity":               points.Infinity,
	"repro/internal/points.Standard":               points.Standard,
	"repro/internal/points.StandardWithRedundancy": points.StandardWithRedundancy,
	"repro/internal/rat.One":                       rat.One,
	"repro/internal/toom.IntRows":                  toom.IntRows,
	"repro/internal/toom.MustNew":                  toom.MustNew,
	"repro/internal/toom.New":                      toom.New,
	"repro/internal/toom.NewWithPoints":            toom.NewWithPoints,
}

var bigintType = reflect.TypeOf(bigint.Int{})

// nativeCall executes a natively bridged call: stdlib specials, opaque
// big-integer method abstractions, registry functions, and reflective
// method dispatch on concrete native values.
func (in *interp) nativeCall(fr *frame, key string, recv Value, call *ast.CallExpr) []Value {
	in.step(call.Pos())
	pos := call.Pos()

	switch key {
	case "fmt.Sprintf":
		args := in.evalArgs(fr, call)
		return []Value{in.sprintf(args, pos)}
	case "fmt.Sprint":
		args := in.evalArgs(fr, call)
		return []Value{in.sprint(args)}
	case "fmt.Errorf":
		args := in.evalArgs(fr, call)
		s := in.sprintf(args, pos)
		msg := "error"
		if sv, ok := s.(StrVal); ok && sv.Known {
			msg = sv.V
		}
		return []Value{ErrVal{Msg: msg}}
	case "errors.New":
		args := in.evalArgs(fr, call)
		msg := "error"
		if sv, ok := args[0].(StrVal); ok && sv.Known {
			msg = sv.V
		}
		return []Value{ErrVal{Msg: msg}}
	case "sort.Ints":
		in.sortInts(in.evalArgs(fr, call), pos)
		return nil
	case "sort.Strings":
		in.sortStrings(in.evalArgs(fr, call), pos)
		return nil
	case "sort.Slice":
		in.sortSlice(fr, call)
		return nil
	}

	// Methods on an opaque big scalar (bigint.Int or rat.Rat payload data):
	// the zero-test/decode round trips the straggler protocol relies on are
	// tracked; everything else is data-only and stays opaque.
	if ov, ok := recv.(*OpaqueVal); ok {
		return in.opaqueMethod(fr, ov, key, call)
	}

	if nv, ok := recv.(NativeVal); ok {
		return in.nativeMethod(fr, nv, key, call)
	}

	if fn, ok := nativeRegistry[key]; ok {
		if out, ok := in.tryInvoke(fr, reflect.ValueOf(fn), nil, call); ok {
			return out
		}
		return in.fallbackResults(fr, key, call)
	}

	// Special-cased constructors for opaque integers.
	switch key {
	case "repro/internal/bigint.Zero":
		return []Value{opaqueOf(0)}
	case "repro/internal/bigint.One":
		return []Value{opaqueOf(1)}
	case "repro/internal/bigint.FromInt64", "repro/internal/bigint.FromUint64":
		args := in.evalArgs(fr, call)
		if iv, ok := args[0].(IntVal); ok && iv.Known {
			return []Value{opaqueOf(iv.V)}
		}
		return []Value{opaque()}
	}

	return in.fallbackResults(fr, key, call)
}

func methodName(key string) string { return key[strings.LastIndex(key, ".")+1:] }

// opaqueMethod abstracts a method call on an opaque payload scalar.
func (in *interp) opaqueMethod(fr *frame, ov *OpaqueVal, key string, call *ast.CallExpr) []Value {
	switch methodName(key) {
	case "Int64":
		// bigint.Int.Int64 decodes a FromInt64-encoded value: the straggler
		// decision protocol's column indices make this round trip exact.
		if ov.Known != nil {
			return []Value{knownInt(*ov.Known), knownBool(true)}
		}
		return []Value{unknownInt(), BoolVal{}}
	case "IsZero":
		if ov.Known != nil {
			return []Value{knownBool(*ov.Known == 0)}
		}
		return []Value{BoolVal{}}
	case "Sign":
		if ov.Known != nil {
			s := int64(0)
			if *ov.Known > 0 {
				s = 1
			} else if *ov.Known < 0 {
				s = -1
			}
			return []Value{knownInt(s)}
		}
		return []Value{unknownInt()}
	}
	return in.fallbackResults(fr, key, call)
}

// nativeMethod dispatches a method on a concrete native value, falling back
// to the result-typed abstraction when an argument is opaque.
func (in *interp) nativeMethod(fr *frame, nv NativeVal, key string, call *ast.CallExpr) []Value {
	rv := reflect.ValueOf(nv.V)
	m := rv.MethodByName(methodName(key))
	if !m.IsValid() && rv.Kind() != reflect.Pointer && rv.CanAddr() {
		m = rv.Addr().MethodByName(methodName(key))
	}
	if !m.IsValid() && rv.Kind() != reflect.Pointer {
		// Pointer-receiver method on an addressable copy.
		pv := reflect.New(rv.Type())
		pv.Elem().Set(rv)
		m = pv.MethodByName(methodName(key))
	}
	if !m.IsValid() {
		fail(call.Pos(), "native method %s is not available", key)
	}
	if out, ok := in.tryInvoke(fr, m, nil, call); ok {
		return out
	}
	return in.fallbackResults(fr, key, call)
}

// tryInvoke calls fn natively when every argument is concretely
// materializable; ok is false when any argument is opaque.
func (in *interp) tryInvoke(fr *frame, fn reflect.Value, pre []reflect.Value, call *ast.CallExpr) (out []Value, ok bool) {
	ft := fn.Type()
	if ft.IsVariadic() {
		return nil, false
	}
	args := in.evalArgs(fr, call)
	if len(pre)+len(args) != ft.NumIn() {
		return nil, false
	}
	rargs := append([]reflect.Value(nil), pre...)
	for i, a := range args {
		na, okA := toNative(a, ft.In(len(pre)+i))
		if !okA {
			return nil, false
		}
		rargs = append(rargs, na)
	}
	pos := call.Pos()
	defer func() {
		if r := recover(); r != nil {
			fail(pos, "native call panicked: %v", r)
		}
	}()
	res := fn.Call(rargs)
	out = make([]Value, len(res))
	for i, r := range res {
		out[i] = fromNative(r, pos)
	}
	return out, true
}

// toNative materializes an interpreter value as a reflect value of type t.
func toNative(v Value, t reflect.Type) (reflect.Value, bool) {
	switch x := v.(type) {
	case NativeVal:
		rv := reflect.ValueOf(x.V)
		if rv.Type().AssignableTo(t) {
			return rv, true
		}
		if rv.Type().ConvertibleTo(t) && rv.Kind() == t.Kind() {
			return rv.Convert(t), true
		}
		return reflect.Value{}, false
	case IntVal:
		if !x.Known {
			return reflect.Value{}, false
		}
		switch t.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return reflect.ValueOf(x.V).Convert(t), true
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if x.V < 0 {
				return reflect.Value{}, false
			}
			return reflect.ValueOf(x.V).Convert(t), true
		case reflect.Float32, reflect.Float64:
			return reflect.ValueOf(x.V).Convert(t), true
		}
		return reflect.Value{}, false
	case FloatVal:
		if !x.Known || (t.Kind() != reflect.Float64 && t.Kind() != reflect.Float32) {
			return reflect.Value{}, false
		}
		return reflect.ValueOf(x.V).Convert(t), true
	case BoolVal:
		if !x.Known || t.Kind() != reflect.Bool {
			return reflect.Value{}, false
		}
		return reflect.ValueOf(x.V), true
	case StrVal:
		if !x.Known || t.Kind() != reflect.String {
			return reflect.Value{}, false
		}
		return reflect.ValueOf(x.V).Convert(t), true
	case *OpaqueVal:
		if x.Known != nil && t == bigintType {
			return reflect.ValueOf(bigint.FromInt64(*x.Known)), true
		}
		return reflect.Value{}, false
	case NilVal:
		switch t.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			return reflect.Zero(t), true
		}
		return reflect.Value{}, false
	case *SliceVal:
		if t.Kind() != reflect.Slice {
			return reflect.Value{}, false
		}
		out := reflect.MakeSlice(t, len(x.Elems), len(x.Elems))
		for i, e := range x.Elems {
			ev, ok := toNative(e, t.Elem())
			if !ok {
				return reflect.Value{}, false
			}
			out.Index(i).Set(ev)
		}
		return out, true
	}
	return reflect.Value{}, false
}

var errorType = reflect.TypeOf((*error)(nil)).Elem()

// fromNative abstracts a native result back into the value domain. Big
// integers become opaque scalars; structured numeric values (points,
// rationals, matrices, codes, algorithms) stay native so later concrete
// calls remain exact.
func fromNative(rv reflect.Value, pos token.Pos) Value {
	if !rv.IsValid() {
		return NilVal{}
	}
	if rv.Type() == errorType || (rv.Kind() == reflect.Interface && rv.Type().Implements(errorType)) {
		if rv.IsNil() {
			return NilVal{}
		}
		return ErrVal{Msg: rv.Interface().(error).Error()}
	}
	if rv.Kind() == reflect.Interface {
		if rv.IsNil() {
			return NilVal{}
		}
		rv = rv.Elem()
	}
	if rv.Type() == bigintType {
		return opaque()
	}
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return knownInt(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return knownInt(int64(rv.Uint()))
	case reflect.Bool:
		return knownBool(rv.Bool())
	case reflect.String:
		return knownStr(rv.String())
	case reflect.Float32, reflect.Float64:
		return FloatVal{Known: true, V: rv.Float()}
	case reflect.Slice:
		out := make([]Value, rv.Len())
		for i := range out {
			out[i] = fromNative(rv.Index(i), pos)
		}
		return &SliceVal{Elems: out}
	case reflect.Pointer:
		if rv.IsNil() {
			return NilVal{}
		}
		return NativeVal{V: rv.Interface()}
	case reflect.Struct:
		return NativeVal{V: rv.Interface()}
	}
	fail(pos, "native result kind %v is not modeled", rv.Kind())
	return nil
}

// nativeField reads an exported struct field of a native value.
func nativeField(nv NativeVal, name string, pos token.Pos) Value {
	rv := reflect.ValueOf(nv.V)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		fail(pos, "field %s of native %T", name, nv.V)
	}
	f := rv.FieldByName(name)
	if !f.IsValid() {
		fail(pos, "native %T has no field %s", nv.V, name)
	}
	return fromNative(f, pos)
}

// fallbackResults abstracts a native call whose arguments carry opaque
// payload data: each result is typed from the call expression. Error
// results are assumed nil — native numeric kernels failing on valid data is
// an arithmetic property, checked by tests and other analyzers, not a
// protocol property.
func (in *interp) fallbackResults(fr *frame, key string, call *ast.CallExpr) []Value {
	tv, ok := fr.pkg.Info.Types[ast.Expr(call)]
	if !ok {
		fail(call.Pos(), "native %s: no result type", key)
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		out := make([]Value, tup.Len())
		for i := 0; i < tup.Len(); i++ {
			out[i] = in.fallbackOne(tup.At(i).Type(), key, call.Pos())
		}
		return out
	}
	if tv.Type == nil || tv.IsVoid() {
		return nil
	}
	return []Value{in.fallbackOne(tv.Type, key, call.Pos())}
}

func (in *interp) fallbackOne(t types.Type, key string, pos token.Pos) Value {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		info := u.Info()
		switch {
		case info&types.IsInteger != 0:
			return unknownInt()
		case info&types.IsBoolean != 0:
			return BoolVal{}
		case info&types.IsString != 0:
			return StrVal{}
		case info&types.IsFloat != 0:
			return FloatVal{}
		}
	case *types.Interface:
		if isErrorType(t) {
			return NilVal{}
		}
	case *types.Struct, *types.Pointer:
		// Opaque numeric scalar (bigint.Int, rat.Rat, partially-known
		// matrix). Anything protocol-shaped would need concrete structure,
		// and concrete calls never reach this fallback.
		return opaque()
	}
	fail(pos, "native %s: opaque arguments and result type %v (protocol shape would be lost)", key, t)
	return nil
}

// sprintf renders a fmt format string; unknown when any interpolated
// argument is not concretely printable (such a string can never soundly be
// used as a message tag — strOf turns it into a visible finding).
func (in *interp) sprintf(args []Value, pos token.Pos) Value {
	f, ok := args[0].(StrVal)
	if !ok || !f.Known {
		return StrVal{}
	}
	var b strings.Builder
	next := 1
	s := f.V
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i < len(s) && s[i] == '%' {
			b.WriteByte('%')
			continue
		}
		// Skip flags/width/precision, then consume the verb.
		for i < len(s) && strings.IndexByte("+-# 0123456789.", s[i]) >= 0 {
			i++
		}
		if i >= len(s) || next >= len(args) {
			return StrVal{}
		}
		rendered, okR := formatValue(args[next])
		if !okR {
			return StrVal{}
		}
		if s[i] == 'q' {
			rendered = fmt.Sprintf("%q", rendered)
		}
		b.WriteString(rendered)
		next++
	}
	return knownStr(b.String())
}

// sprint renders fmt.Sprint: spaces between operands when neither is a
// string (the only modeled use is Sprint of one []int survivor set).
func (in *interp) sprint(args []Value) Value {
	parts := make([]string, len(args))
	for i, a := range args {
		s, ok := formatValue(a)
		if !ok {
			return StrVal{}
		}
		parts[i] = s
	}
	if len(parts) == 1 {
		return knownStr(parts[0])
	}
	out := ""
	for i, p := range parts {
		_, prevStr := args[max(i-1, 0)].(StrVal)
		_, curStr := args[i].(StrVal)
		if i > 0 && !prevStr && !curStr {
			out += " "
		}
		out += p
	}
	return knownStr(out)
}

func (in *interp) sortInts(args []Value, pos token.Pos) {
	sl, ok := args[0].(*SliceVal)
	if !ok {
		if _, isNil := args[0].(NilVal); isNil {
			return
		}
		fail(pos, "sort.Ints of %T", args[0])
	}
	vals := make([]int64, len(sl.Elems))
	for i, e := range sl.Elems {
		iv, ok := e.(IntVal)
		if !ok || !iv.Known {
			fail(pos, "sort.Ints over non-concrete elements")
		}
		vals[i] = iv.V
	}
	sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
	for i, v := range vals {
		sl.Elems[i] = knownInt(v)
	}
}

func (in *interp) sortStrings(args []Value, pos token.Pos) {
	sl, ok := args[0].(*SliceVal)
	if !ok {
		return
	}
	vals := make([]string, len(sl.Elems))
	for i, e := range sl.Elems {
		sv, ok := e.(StrVal)
		if !ok || !sv.Known {
			fail(pos, "sort.Strings over non-concrete elements")
		}
		vals[i] = sv.V
	}
	sort.Strings(vals)
	for i, v := range vals {
		sl.Elems[i] = knownStr(v)
	}
}

// sortSlice runs sort.Slice with the interpreted less closure (insertion
// sort: deterministic, stable enough for the modeled comparators, and the
// slices involved are tiny).
func (in *interp) sortSlice(fr *frame, call *ast.CallExpr) {
	pos := call.Pos()
	args := in.evalArgs(fr, call)
	sl, ok := args[0].(*SliceVal)
	if !ok {
		fail(pos, "sort.Slice of %T", args[0])
	}
	less := func(i, j int) bool {
		var out []Value
		switch f := args[1].(type) {
		case *ClosureVal:
			out = in.callClosure(f, []Value{knownInt(int64(i)), knownInt(int64(j))}, pos)
		default:
			fail(pos, "sort.Slice comparator %T", args[1])
		}
		if len(out) != 1 {
			fail(pos, "sort.Slice comparator arity")
		}
		b, ok := out[0].(BoolVal)
		if !ok || !b.Known {
			fail(pos, "sort.Slice comparator is not concrete")
		}
		return b.V
	}
	for i := 1; i < len(sl.Elems); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			sl.Elems[j], sl.Elems[j-1] = sl.Elems[j-1], sl.Elems[j]
		}
	}
}
