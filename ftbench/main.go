// Command ftbench is the repository's benchmark for the fault-tolerant
// multipliers. One run measures one workload for a given seed and run
// length, checks every product against math/big, and prints its metrics by
// name with their units; the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 it measures the end-to-end metrics: a closed loop of one
// client, one operation in flight, with no spans recorded. With --trace 1
// it measures the per-layer metrics: each operation also runs through the
// engine under spans, and the layers below it are timed on the same
// operands. README.md lists the workloads, the metrics, and which
// end-to-end metric each per-layer metric should move.
//
// Run it through run.sh, which builds it and sets GOMAXPROCS=1:
//
//	bash ftbench/run.sh --workload ft-int-clean --seed 1 --seconds 50 --trace 0
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	ftmul "repro"
	"repro/internal/benchenv"
	"repro/internal/workpool"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in order.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
	{"cp_flops", "flops"},
	{"cp_words", "words"},
	{"cp_msgs", "msgs"},
}

var perLayer = []metricDef{
	{"bigint.mul_ms", "ms"},
	{"bigint.mul_allocs", "count"},
	{"toom.mul_ms", "ms"},
	{"toom.mul_allocs", "count"},
	{"toom.kernel_ratio", "ratio"},
	{"toom.leaf_mul_ms", "ms"},
	{"toom.eval_ms", "ms"},
	{"toom.interp_ms", "ms"},
	{"erasure.encode_ms", "ms"},
	{"erasure.decode_ms", "ms"},
	{"collective.bcast_ms", "ms"},
	{"collective.reduce_ms", "ms"},
	{"machine.run_empty_ms", "ms"},
	{"ft.engine_ms", "ms"},
	{"mat.naive_ms", "ms"},
	{"mat.strassen_ms", "ms"},
	{"mat.tile_mul_ms", "ms"},
	{"ftmatmul.naive_ratio", "ratio"},
	{"go.gc_cpu_ms_per_op", "ms"},
	{"go.gc_cycles_per_op", "count"},
	{"go.alloc_objects_per_op", "count"},
	{"workpool.spawned_per_op", "count"},
	{"workpool.inline_per_op", "count"},
	{"ft.recovered", "count"},
	{"ft.dead_columns", "count"},
	{"ft.faults_seen", "count"},
	{"ftmatmul.dead_ranks", "count"},
	{"cost.total_flops", "flops"},
	{"cost.total_words", "words"},
	{"cost.total_msgs", "msgs"},
	{"cost.bw_in", "words"},
	{"trace.overhead_ms", "ms"},
}

// Setup repetitions: setup_s is the median of setupReps timed set-ups, each
// running warmups fault-free operations.
const (
	setupReps = 3
	warmups   = 2
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("ftbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload name, or all")
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 50, "measured seconds per run (rounded up to whole rounds)")
	trace := fl.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "ftbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}
	s, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "ftbench: unknown workload %q\n", *name)
		return 2
	}
	dur := time.Duration(*seconds) * time.Second

	reps := setupReps
	if *trace == 1 {
		reps = 1
	}
	var setups, rawSetups []float64
	for i := 0; i < reps; i++ {
		// The first set-up counts all the CPU time the process has used,
		// so it includes runtime start-up and package initialization
		// (the kernel ladder's calibration load).
		var from time.Duration
		if i > 0 {
			from = cpuTime()
		}
		p0 := probe()
		if err := setUp(s, *seed); err != nil {
			fmt.Fprintf(stderr, "ftbench: %s: set-up: %v\n", s.name, err)
			return 1
		}
		raw := (cpuTime() - from).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*hostScale(p0, probe()))
	}

	prov := map[string]any{
		"workload": s.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"commit": envOr("FTBENCH_COMMIT", "unknown"), "setup_s_runs": setups, "setup_s_raw_runs": rawSetups,
	}
	var res result
	var lines []string
	if *trace == 0 {
		res, lines = endToEndRun(s, *seed, dur, median(setups), prov)
	} else {
		res, lines = tracedRun(s, *seed, dur, prov)
	}
	prov["source_sha256"] = sourceDigest(".")
	prov["env"] = benchenv.Collect()
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	// prov holds strings, integers and finite floats only.
	pj, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(pj))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "ftbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp warms the process up for s with fault-free operations whose
// operands come from a stream separate from the measured one.
func setUp(s spec, seed int64) error {
	rng := rand.New(rand.NewSource(^seed))
	for i := 0; i < warmups; i++ {
		in := s.newInput(rng, nil)
		if _, err := withDeadline(opDeadline, func() (opReport, error) { return s.mulFacade(in) }); err != nil {
			return err
		}
	}
	return nil
}

// endToEndRun is the untraced pass: whole rounds of operations through the
// public API until at least dur has passed.
func endToEndRun(s spec, seed int64, dur time.Duration, setup float64, prov map[string]any) (result, []string) {
	rng := rand.New(rand.NewSource(seed))
	var acc opSamples
	rounds := 0
	start := time.Now()
	for time.Since(start) < dur {
		rounds++
		if !acc.runRound(s, s.round(rng), rng) {
			break
		}
	}
	elapsed := time.Since(start)
	res := result{Correct: acc.failed == 0, Attempted: acc.attempted, Failed: acc.failed}
	vals := map[string]float64{
		"latency_p50_ms":  median(acc.lat),
		"latency_tail_ms": percentile(acc.lat, tailPct),
		"alloc_mb_per_op": mean(acc.allocMB),
		"setup_s":         setup,
		"cp_flops":        mean(acc.flops),
		"cp_words":        mean(acc.words),
		"cp_msgs":         mean(acc.msgs),
	}
	failRatio := float64(acc.failed) / float64(max(acc.attempted, 1))
	prov["rounds"], prov["elapsed_s"] = rounds, elapsed.Seconds()
	prov["tail_percentile"], prov["tail_beyond"] = tailPct, beyond(acc.lat, tailPct)
	prov["fail_ratio"] = failRatio
	prov["probe_ms_median"], prov["probe_nominal_ms"] = median(acc.probeMS), probeNominalMS
	prov["latency_p50_raw_ms"], prov["latency_tail_raw_ms"] = median(acc.rawLat), percentile(acc.rawLat, tailPct)
	prov["latency_p50_wall_ms"], prov["latency_tail_wall_ms"] = median(acc.wallLat), percentile(acc.wallLat, tailPct)
	lines := []string{fmt.Sprintf("%s seed=%d: %d operations in %d rounds, %.1f s measured, GOMAXPROCS=%d",
		s.name, seed, acc.attempted, rounds, elapsed.Seconds(), runtime.GOMAXPROCS(0))}
	res.Metrics, lines = emit(endToEnd, vals, &res, lines)
	lines = append(lines,
		fmt.Sprintf("  %-26s p%g of %d samples, %d beyond it", "(latency_tail_ms)", tailPct, len(acc.lat), beyond(acc.lat, tailPct)),
		fmt.Sprintf("  %-26s %-14.6g ratio (%d of %d failed)", "fail_ratio", failRatio, acc.failed, acc.attempted),
		fmt.Sprintf("  %-26s p50 %.3f ms, p%g %.3f ms; probe median %.4f ms (nominal %g ms)", "(raw CPU time)",
			median(acc.rawLat), tailPct, percentile(acc.rawLat, tailPct), median(acc.probeMS), probeNominalMS),
		fmt.Sprintf("  %-26s p50 %.3f ms, p%g %.3f ms", "(wall time)",
			median(acc.wallLat), tailPct, percentile(acc.wallLat, tailPct)))
	return res, append(lines, errLines(acc.errs)...)
}

// opSamples accumulates the untraced pass's per-operation measurements.
// An operation's latency is the process CPU time it took (cpuTime): with
// one operation in flight on one P and nothing blocking, that is its wall
// time on a CPU of its own. rawLat holds the measured latencies, lat the
// same rescaled by the host-speed probe (probe.go), and wallLat the wall
// times, for reference. Failed operations count in failed and contribute
// no samples.
type opSamples struct {
	lat, rawLat, wallLat, probeMS []float64
	allocMB, flops, words, msgs   []float64
	attempted, failed             int
	errs                          []string
}

// runRound runs one operation per plan through the public API. It returns
// false when an operation missed its deadline and the pass must end.
func (acc *opSamples) runRound(s spec, plans [][]ftmul.Fault, rng *rand.Rand) bool {
	for _, plan := range plans {
		in := s.newInput(rng, plan)
		var before, after runtime.MemStats
		p0 := probe()
		runtime.ReadMemStats(&before)
		t0, c0 := time.Now(), cpuTime()
		rep, err := withDeadline(opDeadline, func() (opReport, error) { return s.mulFacade(in) })
		d := float64((cpuTime() - c0).Nanoseconds()) / 1e6
		wall := float64(time.Since(t0).Nanoseconds()) / 1e6
		runtime.ReadMemStats(&after)
		p1 := probe()
		acc.attempted++
		if err != nil {
			acc.failed++
			acc.errs = append(acc.errs, fmt.Sprintf("plan %v: %v", plan, err))
			if errors.Is(err, errDeadline) {
				return false
			}
			continue
		}
		acc.lat = append(acc.lat, d*hostScale(p0, p1))
		acc.rawLat = append(acc.rawLat, d)
		acc.wallLat = append(acc.wallLat, wall)
		acc.probeMS = append(acc.probeMS, (p0+p1)/2)
		acc.allocMB = append(acc.allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		acc.flops = append(acc.flops, float64(rep.F))
		acc.words = append(acc.words, float64(rep.BW))
		acc.msgs = append(acc.msgs, float64(rep.L))
	}
	return true
}

// goCounters are process-wide counters read around each traced operation.
type goCounters struct {
	gcCPU           float64 // seconds
	gcCycles        uint64
	spawned, inline int64
}

func readGo() goCounters {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var c goCounters
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	_, c.spawned, c.inline = workpool.Shared().Stats()
	return c
}

// tracedRun is the traced pass. It repeats the workload's plan cycle until
// at least dur has passed. Per operation: the public-API call untraced, the
// same operation through the engine under spans (alternating which runs
// first), the layer ladder of the workload's operand family on the same
// operands, the other family's ladder on seed-drawn operands, and the
// communication layers on the workload's backend. Integer workloads also
// run one ft-matmul operation per step for the ftmatmul.* metrics.
func tracedRun(s spec, seed int64, dur time.Duration, prov map[string]any) (result, []string) {
	rng := rand.New(rand.NewSource(seed))
	cycle := s.cycle(rng)
	other := matSpec()
	if s.matrix {
		other = intSpec()
	}
	oc := other.cycle(rng)
	otherIn := other.newInput(rng, oc[len(oc)-1])

	tr := newTracer()
	res := result{Correct: true}
	var errs []string
	var twinMS, tracedMS, overheadMS, matMS []float64
	var gcCPU, gcCycles, spawned, inline []float64
	var firstCycle []opReport
	var matDead []float64
	engineSpan := "ftparallel.multiply"
	if s.matrix {
		engineSpan = "ftmatmul.multiply"
	}
	fail := func(op int, what string, err error) {
		res.Failed++
		errs = append(errs, fmt.Sprintf("op %d %s: %v", op, what, err))
	}

	op := 0
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < dur; c++ {
		for _, plan := range cycle {
			in := s.newInput(rng, plan)
			var twin, traced opReport
			var twinErr, tracedErr error
			var twinLat, tracedLat float64
			runTwin := func() {
				t0 := time.Now()
				twin, twinErr = withDeadline(opDeadline, func() (opReport, error) { return s.mulFacade(in) })
				twinLat = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
			runTraced := func() {
				g0 := readGo()
				root := -1
				traced, tracedErr = withDeadline(opDeadline, func() (opReport, error) {
					root = tr.begin(op, "ft.op")
					defer tr.end(root)
					return s.mulEngine(in, tr, op)
				})
				g1 := readGo()
				if root >= 0 {
					sp := tr.spans[root]
					tracedLat = sp.EndMS - sp.StartMS
				}
				gcCPU = append(gcCPU, (g1.gcCPU-g0.gcCPU)*1e3)
				gcCycles = append(gcCycles, float64(g1.gcCycles-g0.gcCycles))
				spawned = append(spawned, float64(g1.spawned-g0.spawned))
				inline = append(inline, float64(g1.inline-g0.inline))
			}
			if op%2 == 0 {
				runTwin()
				runTraced()
			} else {
				runTraced()
				runTwin()
			}
			res.Attempted += 2
			for _, e := range []struct {
				what string
				err  error
			}{{"untraced", twinErr}, {"traced", tracedErr}} {
				if e.err != nil {
					fail(op, e.what, e.err)
					if errors.Is(e.err, errDeadline) {
						return abort(res, errs)
					}
				}
			}
			if twinErr == nil && tracedErr == nil {
				twinMS, tracedMS = append(twinMS, twinLat), append(tracedMS, tracedLat)
				// Paired difference: both runs of an operation are adjacent
				// in time, so host-speed swings largely cancel.
				overheadMS = append(overheadMS, tracedLat-twinLat)
				if !traced.sameCounts(twin) {
					errs = append(errs, fmt.Sprintf("op %d: traced and untraced cost reports differ: %+v vs %+v", op, traced, twin))
					res.Correct = false
				}
			}
			if c == 0 {
				firstCycle = append(firstCycle, traced)
			}

			_, err := withDeadline(opDeadline, func() (struct{}, error) {
				intIn, matIn := in, otherIn
				if s.matrix {
					intIn, matIn = otherIn, in
				}
				if err := intLayers(tr, op, intIn); err != nil {
					return struct{}{}, err
				}
				if err := matLayers(tr, op, matIn); err != nil {
					return struct{}{}, err
				}
				vec, err := shareVector(s, in)
				if err != nil {
					return struct{}{}, err
				}
				return struct{}{}, commLayers(tr, op, s.backend, vec)
			})
			if err != nil {
				errs = append(errs, fmt.Sprintf("op %d layers: %v", op, err))
				res.Correct = false
				if errors.Is(err, errDeadline) {
					return abort(res, errs)
				}
			}

			if s.matrix {
				if twinErr == nil {
					matMS = append(matMS, twinLat)
				}
				matDead = append(matDead, float64(twin.dead))
			} else {
				t0 := time.Now()
				rep, err := withDeadline(opDeadline, func() (opReport, error) { return other.mulFacade(otherIn) })
				res.Attempted++
				if err != nil {
					fail(op, "ft-matmul", err)
					if errors.Is(err, errDeadline) {
						return abort(res, errs)
					}
				} else {
					matMS = append(matMS, float64(time.Since(t0).Nanoseconds())/1e6)
					matDead = append(matDead, float64(rep.dead))
				}
			}
			op++
		}
	}

	med := func(name string) float64 { return median(tr.durations(name)) }
	firstMean := func(f func(opReport) float64) float64 {
		xs := make([]float64, len(firstCycle))
		for i, r := range firstCycle {
			xs[i] = f(r)
		}
		return mean(xs)
	}
	vals := map[string]float64{
		"bigint.mul_ms":           med("bigint.mul"),
		"bigint.mul_allocs":       median(tr.objects("bigint.mul")),
		"toom.mul_ms":             med("toom.mul"),
		"toom.mul_allocs":         median(tr.objects("toom.mul")),
		"toom.leaf_mul_ms":        med("toom.leaf_mul"),
		"toom.eval_ms":            med("toom.eval"),
		"toom.interp_ms":          med("toom.interp"),
		"erasure.encode_ms":       med("erasure.encode"),
		"erasure.decode_ms":       med("erasure.decode"),
		"collective.bcast_ms":     med("collective.bcast"),
		"collective.reduce_ms":    med("collective.reduce"),
		"machine.run_empty_ms":    med("machine.run_empty"),
		"ft.engine_ms":            med(engineSpan),
		"mat.naive_ms":            med("mat.naive"),
		"mat.strassen_ms":         med("mat.strassen"),
		"mat.tile_mul_ms":         med("mat.tile_mul"),
		"go.gc_cpu_ms_per_op":     mean(gcCPU),
		"go.gc_cycles_per_op":     mean(gcCycles),
		"go.alloc_objects_per_op": median(tr.objects("ft.op")),
		"workpool.spawned_per_op": mean(spawned),
		"workpool.inline_per_op":  mean(inline),
		"ft.recovered":            firstMean(func(r opReport) float64 { return float64(r.recovered) }),
		"ft.dead_columns":         firstMean(func(r opReport) float64 { return float64(r.dead) }),
		"ft.faults_seen":          firstMean(func(r opReport) float64 { return float64(r.faultsSeen) }),
		"cost.total_flops":        firstMean(func(r opReport) float64 { return float64(r.TotalF) }),
		"cost.total_words":        firstMean(func(r opReport) float64 { return float64(r.TotalBW) }),
		"cost.total_msgs":         firstMean(func(r opReport) float64 { return float64(r.TotalL) }),
		"cost.bw_in":              firstMean(func(r opReport) float64 { return float64(r.bwIn) }),
		"ftmatmul.dead_ranks":     mean(matDead),
		"trace.overhead_ms":       median(overheadMS),
	}
	vals["toom.kernel_ratio"] = vals["toom.mul_ms"] / vals["bigint.mul_ms"]
	vals["ftmatmul.naive_ratio"] = median(matMS) / vals["mat.naive_ms"]

	spans := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", s.name, seed))
	if err := tr.write(spans); err != nil {
		errs = append(errs, fmt.Sprintf("writing spans: %v", err))
		res.Correct = false
	}
	prov["operations"], prov["cycle"], prov["spans"] = op, cycle, spans
	prov["elapsed_s"] = time.Since(start).Seconds()
	lines := []string{fmt.Sprintf("%s seed=%d traced: %d operations (cycle of %d plans), %d spans, GOMAXPROCS=%d",
		s.name, seed, op, len(cycle), len(tr.spans), runtime.GOMAXPROCS(0))}
	res.Metrics, lines = emit(perLayer, vals, &res, lines)
	lines = append(lines, fmt.Sprintf("  traced latency p50 %.3f ms, untraced %.3f ms", median(tracedMS), median(twinMS)))
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, append(lines, errLines(errs)...)
}

// abort ends a pass whose operation missed its deadline: the result is
// reported as failed without metrics.
func abort(res result, errs []string) (result, []string) {
	res.Correct = false
	res.Metrics = map[string]metric{}
	return res, errLines(errs)
}

// emit turns vals into the result's metrics in the order of defs and adds a
// "name value unit" line per metric. A missing or non-finite value marks
// the result incorrect.
func emit(defs []metricDef, vals map[string]float64, res *result, lines []string) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			lines = append(lines, fmt.Sprintf("error: metric %s has no value", d.name))
			res.Correct = false
			v = 0
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("  %-26s %-14.6g %s", d.name, v, d.unit))
	}
	return out, lines
}

func errLines(errs []string) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = "error: " + e
	}
	return out
}

// runAll runs every workload in its own process, one after another, and
// combines their results under "<workload>/<metric>" names.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "ftbench: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range specs {
		cmd := exec.Command(self, "--workload", s.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		stdout.Write(out)
		var r result
		if perr := json.Unmarshal(lastLine(out), &r); perr != nil || err != nil {
			fmt.Fprintf(stderr, "ftbench: %s: %v %v\n", s.name, err, perr)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[s.name+"/"+k] = v
		}
	}
	out, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(out))
	if !all.Correct {
		return 1
	}
	return 0
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			last = append(last[:0], l...)
		}
	}
	return last
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// sourceDigest hashes the Go sources and module files under root, so runs
// from checkouts without git metadata can still be matched to their code.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
