package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
)

// span is one timed interval recorded by the benchmark's own code
// around a call into a layer, or around a wait for the program.
// Spans of one request or lifecycle share a root through Parent.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Kind   string        `json:"kind,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the untraced run and the untraced
// quarters of a traced run pass it around.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	next   uint64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span id, so children can name a parent that is
// recorded after them.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a span under a reserved id.
func (t *tracer) add(id, parent uint64, name, kind string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Kind: kind,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	t.mu.Unlock()
}

// leaf records a span that has no children.
func (t *tracer) leaf(parent uint64, name string, start, end time.Time) {
	t.add(t.id(), parent, name, "", start, end)
}

// selfTimes returns, per span name, the mean self time: the span's
// duration minus the durations of its children, floored at zero.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	sum := make(map[string]time.Duration)
	n := make(map[string]int)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			self = 0
		}
		sum[s.Name] += self
		n[s.Name]++
	}
	out := make(map[string]time.Duration, len(sum))
	for name, d := range sum {
		out[name] = d / time.Duration(n[name])
	}
	return out
}

// write stores the spans as JSON lines at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// addSelfTimes reports the mean self time of each span in selfSpans.
func addSelfTimes(v values, t *tracer) {
	self := t.selfTimes()
	for _, name := range selfSpans {
		if d, ok := self[name]; ok {
			v["self_us."+name] = us(d)
		}
	}
}

// addOverhead reports what tracing cost: the traced half's throughput
// and p50 latency against the untraced quarters'.
func addOverhead(v values, baseRate, tracedRate float64, base, traced timing) {
	v["trace.overhead_throughput"] = 1 - ratio(tracedRate, baseRate)
	v["trace.overhead_latency_p50"] = ratio(traced.P50, base.P50) - 1
}

// checkpointSpan records a collecting Checkpoint call with the
// collection's phase durations as children. The collector reports a
// duration per phase, not start times, so the children are laid end to
// end from the call's start in phase order.
func (t *tracer) checkpointSpan(start, end time.Time, rep *heap.CollectionReport) {
	if t == nil {
		return
	}
	id := t.id()
	at := start
	for i, d := range rep.Phases {
		if d > 0 {
			t.leaf(id, "phase."+heap.Phase(i).String(), at, at.Add(d))
			at = at.Add(d)
		}
	}
	t.add(id, 0, "checkpoint", fmt.Sprintf("gen%d", rep.Gen), start, end)
}

// gcAccum sums the collection reports of a run. It is shared by every
// heap of a server, whose collections run on several goroutines.
type gcAccum struct {
	mu            sync.Mutex
	n             uint64
	pause         time.Duration
	phases        [heap.NumPhases]time.Duration
	workers       uint64
	sweepBusy     time.Duration
	sweepIdle     time.Duration
	minors        uint64
	minorCopied   uint64
	minorGen0     uint64
	minorDirty    uint64
	guardScanned  uint64
	guardSalvaged uint64
	weakBroken    uint64
	segFreed      uint64
	rounds        [64]uint64 // histogram of GuardianRounds; the last bucket is open
}

func (a *gcAccum) add(rep *heap.CollectionReport) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.pause += rep.Pause
	for i, d := range rep.Phases {
		a.phases[i] += d
	}
	a.workers += uint64(rep.WorkersChosen)
	for _, d := range rep.WorkerSweepBusy {
		a.sweepBusy += d
	}
	for _, d := range rep.WorkerSweepIdle {
		a.sweepIdle += d
	}
	if rep.Gen == 0 {
		a.minors++
		a.minorCopied += rep.WordsCopied
		a.minorGen0 += rep.Gen0Words
		a.minorDirty += rep.DirtyCellsScanned
	}
	a.guardScanned += rep.GuardianScanned
	a.guardSalvaged += rep.GuardianSalvaged
	a.weakBroken += rep.WeakBroken
	a.segFreed += rep.SegmentsFreed
	r := rep.GuardianRounds
	if r >= len(a.rounds) {
		r = len(a.rounds) - 1
	}
	a.rounds[r]++
}

// report adds the accumulated per-layer heap metrics to v; wall is the
// measured interval and ops the operations completed in it.
func (a *gcAccum) report(v values, wall time.Duration, ops float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := float64(a.n)
	for i, d := range a.phases {
		v["heap.phase_ms."+heap.Phase(i).String()] = ratio(ms(d), n)
	}
	v["heap.pause_ms_per_s"] = ratio(ms(a.pause), wall.Seconds())
	v["heap.collections_per_kop"] = ratio(1000*n, ops)
	v["heap.workers_chosen_mean"] = ratio(float64(a.workers), n)
	v["heap.sweep_idle_share"] = ratio(float64(a.sweepIdle), float64(a.sweepBusy+a.sweepIdle))
	v["heap.survival_ratio"] = ratio(float64(a.minorCopied), float64(a.minorGen0))
	v["heap.dirty_cells_per_minor"] = ratio(float64(a.minorDirty), float64(a.minors))
	v["heap.guardian_scanned_per_salvaged"] = ratio(float64(a.guardScanned), float64(a.guardSalvaged))
	v["heap.weak_broken_per_collection"] = ratio(float64(a.weakBroken), n)
	v["seg.segments_freed_per_collection"] = ratio(float64(a.segFreed), n)
	var seen uint64
	for r, c := range a.rounds {
		seen += c
		if a.n > 0 && 2*seen >= a.n {
			v["heap.guardian_rounds_p50"] = float64(r)
			break
		}
	}
}

// recordingPolicy wraps a heap's policy and feeds every collection's
// report to a gcAccum while on is set. It is how the benchmark observes
// the collections of session heaps it does not own: the server builds
// those heaps from Config.Heap, and the policy is the public seam that
// sees each finished report.
type recordingPolicy struct {
	heap.Policy
	acc *gcAccum
	on  *atomic.Bool // set for the traced half of a traced run
}

func (p recordingPolicy) NextTrigger(rep *heap.CollectionReport, cur int) int {
	if p.on.Load() {
		p.acc.add(rep)
	}
	return p.Policy.NextTrigger(rep, cur)
}

// spanPath is where a traced run writes its spans, inside the
// benchmark's build directory.
func spanPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
