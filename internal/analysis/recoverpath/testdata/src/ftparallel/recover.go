// Fixture for the recoverpath analyzer, named "ftparallel" so every
// function is inside the fault-tolerance envelope (FTReach). Miniature
// stand-ins for erasure.Code, erasure.Minor, softfault.Corrector,
// machine.FaultEvent, and the bigint arena are matched by name.
package ftparallel

type Int struct{ v int }

type Code struct{ r int }

func (c *Code) Decode(m map[int][]Int) (map[int][]Int, error) { return m, nil }

// Minor stands in for erasure.Minor, the survivor-set decoder every
// recovery path ends in.
type Minor struct{ den int }

func (m *Minor) Apply(dst, res [][]Int) error { return nil }

type Corrector struct{ t int }

func (c *Corrector) Correct(vals []Int) ([]Int, []int, error) { return vals, nil, nil }
func (c *Corrector) Verify(vals []Int) (bool, error)          { return true, nil }

type FaultEvent struct{ P int }

type arena struct{ off int }

func (a *arena) alloc(n int) []Int   { return make([]Int, n) }
func (a *arena) reserve(n int) []Int { return make([]Int, 0, n) }

func getArena() *arena  { return new(arena) }
func putArena(a *arena) {}

// checked is the correct shape: every recovery error is looked at.
func checked(c *Code, m map[int][]Int) (map[int][]Int, error) {
	rec, err := c.Decode(m)
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// decodeVia threads the error through a helper; the helper's summary marks
// it as a recovery-error source too, so its callers are held to the rule.
func decodeVia(c *Code, m map[int][]Int) (map[int][]Int, error) {
	return c.Decode(m)
}

func checkedViaHelper(c *Code, m map[int][]Int) map[int][]Int {
	rec, err := decodeVia(c, m)
	if err != nil {
		return nil
	}
	return rec
}

// discardedDecode throws the erasure outcome away with a blank: an
// undecodable erasure would pass silently.
func discardedDecode(c *Code, m map[int][]Int) map[int][]Int {
	rec, _ := c.Decode(m) // want "discarded with _"
	return rec
}

// discardedViaHelper: the same discard one call away — only the summary
// knows decodeVia's error is a recovery error.
func discardedViaHelper(c *Code, m map[int][]Int) map[int][]Int {
	rec, _ := decodeVia(c, m) // want "discarded with _"
	return rec
}

// discardedMinorApply trusts its residuals, as a column decode that skipped
// the shared decoder's integrality verdict would.
func discardedMinorApply(m *Minor, dst, res [][]Int) [][]Int {
	_ = m.Apply(dst, res) // want "discarded with _"
	return dst
}

// discardedCorrect drops the soft-fault correction error (and the erasure
// index slice with it).
func discardedCorrect(cr *Corrector, vals []Int) []Int {
	fixed, _, _ := cr.Correct(vals) // want "discarded with _"
	return fixed
}

// droppedVerify discards the verification outcome entirely.
func droppedVerify(cr *Corrector, vals []Int) {
	cr.Verify(vals) // want "dropped entirely"
}

// goroutineDecode launches the decode with go: the error can never be seen.
func goroutineDecode(c *Code, m map[int][]Int) {
	go c.Decode(m) // want "launched with go"
}

// spawningHandler is a fault-recovery handler (takes []FaultEvent, lives in
// ftparallel) that spawns a raw goroutine mid-repair.
func spawningHandler(ev []FaultEvent, c *Code, m map[int][]Int) {
	done := make(chan struct{})
	go func() { // want "spawns a raw goroutine"
		close(done)
	}()
	<-done
}

// indirectSpawner hides the goroutine behind a helper; the helper's
// summary carries SpawnsGo back to the handler's call site.
func indirectSpawner(ev []FaultEvent) {
	fanOut() // want "spawns raw goroutines"
}

func fanOut() {
	go func() {}()
}

// arenaHandler allocates repair scratch from the arena its (faulty) caller
// still holds.
func arenaHandler(ev []FaultEvent, a *arena) []Int {
	return a.alloc(len(ev)) // want "arena the faulty path may still hold"
}

// reserveHandler takes uncleared scratch from the same caller-held arena.
func reserveHandler(ev []FaultEvent, a *arena) []Int {
	return a.reserve(len(ev)) // want "arena the faulty path may still hold"
}

// arenaViaHelper does the same one call away.
func arenaViaHelper(ev []FaultEvent, a *arena) {
	scratch(a, len(ev)) // want "passes its caller's arena"
}

func scratch(a *arena, n int) { _ = a.alloc(n) }

// reserveViaHelper reaches reserve through a helper's summary.
func reserveViaHelper(ev []FaultEvent, a *arena) {
	reserved(a, len(ev)) // want "passes its caller's arena"
}

func reserved(a *arena, n int) { _ = a.reserve(n) }

// freshArenaHandler rents its own arena for the repair: allowed.
func freshArenaHandler(ev []FaultEvent) {
	a := getArena()
	defer putArena(a)
	_ = a.alloc(len(ev))
}

// notAHandler spawns a goroutine but handles no fault events; poolspawn,
// not recoverpath, owns that rule.
func notAHandler() {
	go func() {}()
}
