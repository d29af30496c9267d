package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer. Spans of one operation share op;
// parent is the enclosing span's id, -1 at the top.
type span struct {
	ID           int     `json:"id"`
	Parent       int     `json:"parent"`
	Op           int     `json:"op"`
	Name         string  `json:"name"`
	StartMS      float64 `json:"start_ms"` // since the traced pass began
	EndMS        float64 `json:"end_ms"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	AllocObjects uint64  `json:"alloc_objects"`

	mallocs, totalAlloc uint64 // counters at begin
}

// tracer keeps spans in memory; write saves them when the run ends. A nil
// *tracer records nothing, so the same code serves the untraced path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(op int, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartMS: msSince(t.t0), mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	end := msSince(t.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[id]
	s.EndMS = end
	s.AllocObjects = ms.Mallocs - s.mallocs
	s.AllocBytes = ms.TotalAlloc - s.totalAlloc
	t.open = t.open[:len(t.open)-1]
}

// durations returns the duration in ms of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.EndMS-s.StartMS)
		}
	}
	return out
}

// objects returns the allocation count of every span with the given name.
func (t *tracer) objects(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.AllocObjects))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
