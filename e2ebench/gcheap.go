package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obj"
)

// gc-heap: one large heap driven through the heap and core APIs with no
// interpreter, configured as a multi-core embedder would: DefaultConfig
// with Workers=0 (auto). The live set is a forest of binary trees, one
// replaced now and then; every operation allocates a short-lived list,
// some register an object with a guardian, store a young object into an
// old vector, or access a guarded weak-key table. Collections happen
// when the mutator's Checkpoint finds the policy's trigger has fired.

type gcHeapParams struct {
	trees, depth int // the live forest
	replaceEvery int // operations between tree replacements
	guardEvery   int // every Nth operation registers its object with the guardian
	holdSlots    int // old vector holding guarded objects until a later operation drops them
	oldSlots     int // old vector receiving young objects
	keySlots     int // old vector keeping guarded-table keys alive
	pattern      int // length of the seeded operation pattern, a power of two
}

func defaultGCHeapParams() gcHeapParams {
	return gcHeapParams{trees: 32, depth: 13, replaceEvery: 20000, guardEvery: 16,
		holdSlots: 4096, oldSlots: 8192, keySlots: 1024, pattern: 1 << 16}
}

// Operation pattern bits: the low three give the list length less one,
// the high sixteen a slot number.
const (
	opStore       = 1 << 3 // store the list into the old vector
	opTable       = 1 << 4 // access the guarded table with a fresh key
	opKeepKey     = 1 << 5 // keep that key alive in the key vector
	opKeepGuarded = 1 << 6 // keep a guardian-registered object in the hold vector
)

// Lifecycle of a guardian-registered object or a table key.
const (
	held uint8 = iota
	dropped
	salvaged
)

func gcHeapPattern(seed int64, n int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]uint32, n)
	for i := range ops {
		e := uint32(rng.Intn(8)) | uint32(rng.Intn(1<<16))<<16
		if rng.Intn(8) == 0 {
			e |= opStore
		}
		if rng.Intn(16) == 0 {
			e |= opTable
		}
		if rng.Intn(2) == 0 {
			e |= opKeepKey
		}
		if rng.Intn(2) == 0 {
			e |= opKeepGuarded
		}
		ops[i] = e
	}
	return ops
}

// gcRun is the mutator's state. All heap values it keeps across
// Checkpoints live in the rooted vectors.
type gcRun struct {
	p   gcHeapParams
	ops []uint32
	h   *heap.Heap
	g   *core.Guardian
	tbl *core.GuardedTable

	forest, hold, old, keys *heap.Root
	vForest, vHold, vOld    obj.Value // valid until the next Checkpoint
	vKeys                   obj.Value

	n          uint64  // operations done
	guards     []uint8 // per guarded object id
	keyState   []uint8 // per table key id
	drops      uint64
	salvages   uint64
	treeNext   int
	segPeak    int
	violation  error
	minor      []float64 // ms
	major      []float64 // ms
	tr         *tracer   // non-nil in the traced half
	acc        *gcAccum
	getTime    time.Duration
	gets       int
	accessTime time.Duration
	accesses   int
}

func keyHash(h *heap.Heap, key obj.Value) uint64 {
	return uint64(h.Car(key).FixnumValue()) * 0x9E3779B97F4A7C15
}

// newGCRun builds the heap and its initial live set: the set-up.
func newGCRun(p gcHeapParams, ops []uint32) (*gcRun, error) {
	cfg := heap.DefaultConfig()
	cfg.Workers = 0
	h, err := heap.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &gcRun{p: p, ops: ops, h: h, g: core.NewGuardian(h), tbl: core.NewGuardedTable(h, 256, keyHash)}
	r.forest = h.NewRoot(h.MakeVector(p.trees, obj.Nil))
	r.hold = h.NewRoot(h.MakeVector(p.holdSlots, obj.False))
	r.old = h.NewRoot(h.MakeVector(p.oldSlots, obj.Nil))
	r.keys = h.NewRoot(h.MakeVector(p.keySlots, obj.False))
	for t := 0; t < p.trees; t++ {
		h.VectorSet(r.forest.Get(), t, r.tree(p.depth))
		h.Checkpoint()
	}
	r.refresh()
	return r, nil
}

func (r *gcRun) refresh() {
	r.vForest, r.vHold, r.vOld, r.vKeys = r.forest.Get(), r.hold.Get(), r.old.Get(), r.keys.Get()
}

func (r *gcRun) tree(depth int) obj.Value {
	if depth == 0 {
		return obj.FromFixnum(int64(r.treeNext))
	}
	return r.h.Cons(r.tree(depth-1), r.tree(depth-1))
}

// op performs one mutator operation.
func (r *gcRun) op() {
	h := r.h
	e := r.ops[r.n&uint64(len(r.ops)-1)]
	r.n++
	lst := obj.Nil
	for k := int64(e&7) + 1; k > 0; k-- {
		lst = h.Cons(obj.FromFixnum(k), lst)
	}
	slot := int(e >> 16)
	if r.n%uint64(r.p.guardEvery) == 0 {
		id := len(r.guards)
		r.guards = append(r.guards, held)
		x := h.Cons(obj.FromFixnum(int64(id)), lst)
		r.g.Register(x)
		if e&opKeepGuarded != 0 {
			s := slot % r.p.holdSlots
			if prev := h.VectorRef(r.vHold, s); prev != obj.False {
				r.drop(int(h.Car(prev).FixnumValue()))
			}
			h.VectorSet(r.vHold, s, x)
		} else {
			r.drop(id)
		}
	}
	if e&opStore != 0 {
		h.VectorSet(r.vOld, slot%r.p.oldSlots, lst)
	}
	if e&opTable != 0 {
		id := len(r.keyState)
		r.keyState = append(r.keyState, held)
		key := h.Cons(obj.FromFixnum(int64(id)), obj.Nil)
		if r.tr != nil {
			t0 := time.Now()
			r.tbl.Access(key, obj.FromFixnum(int64(id)))
			r.accessTime += time.Since(t0)
			r.accesses++
		} else {
			r.tbl.Access(key, obj.FromFixnum(int64(id)))
		}
		if e&opKeepKey != 0 {
			s := slot % r.p.keySlots
			if prev := h.VectorRef(r.vKeys, s); prev != obj.False {
				r.keyState[h.Car(prev).FixnumValue()] = dropped
			}
			h.VectorSet(r.vKeys, s, key)
		} else {
			r.keyState[id] = dropped
		}
	}
	if r.n%uint64(r.p.replaceEvery) == 0 {
		r.treeNext++
		h.VectorSet(r.vForest, r.treeNext%r.p.trees, r.tree(r.p.depth))
	}
	if h.CollectPending() {
		r.checkpoint()
	}
}

func (r *gcRun) drop(id int) {
	r.guards[id] = dropped
	r.drops++
}

// checkpoint runs the pending collection through Checkpoint, times it,
// and drains the guardian.
func (r *gcRun) checkpoint() {
	before := r.h.Stats.Collections
	t0 := time.Now()
	r.h.Checkpoint()
	t1 := time.Now()
	r.refresh()
	rep := r.h.LastReport()
	if rep == nil || r.h.Stats.Collections == before {
		r.fail(fmt.Errorf("checkpoint with a pending collect request did not collect"))
		return
	}
	if rep.Gen == 0 {
		r.minor = append(r.minor, ms(t1.Sub(t0)))
	} else {
		r.major = append(r.major, ms(t1.Sub(t0)))
	}
	if r.tr != nil {
		r.tr.checkpointSpan(t0, t1, rep)
		r.acc.add(rep)
		r.segPeak = max(r.segPeak, r.h.SegmentsInUse())
	}
	r.drain()
}

// drain retrieves every salvaged object. Each must be one the mutator
// dropped, retrieved once.
func (r *gcRun) drain() {
	for {
		var v obj.Value
		var ok bool
		if r.tr != nil {
			t0 := time.Now()
			v, ok = r.g.Get()
			r.getTime += time.Since(t0)
			r.gets++
		} else {
			v, ok = r.g.Get()
		}
		if !ok {
			return
		}
		id := r.h.Car(v).FixnumValue()
		if id < 0 || int(id) >= len(r.guards) || r.guards[id] != dropped {
			r.fail(fmt.Errorf("guardian returned object %d in state %d", id, r.guards[id]))
			return
		}
		r.guards[id] = salvaged
		r.salvages++
	}
}

func (r *gcRun) fail(err error) {
	if r.violation == nil {
		r.violation = err
	}
}

// gcPhase is what one measured interval of the mutator saw.
type gcPhase struct {
	ops            uint64
	elapsed        time.Duration
	at             []time.Duration // end of each batch of opBatch operations since the phase began; merge drops it
	minor, major   []float64
	barrier, words uint64
	drops, salv    uint64
}

func (a *gcPhase) merge(b gcPhase) {
	a.ops += b.ops
	a.elapsed += b.elapsed
	a.minor = append(a.minor, b.minor...)
	a.major = append(a.major, b.major...)
	a.barrier += b.barrier
	a.words += b.words
	a.drops += b.drops
	a.salv += b.salv
}

// opBatch is how many operations the mutator runs between looks at the
// clock.
const opBatch = 256

// maxOpsPerSec bounds the mutator's rate when the bookkeeping of a run is
// sized up front; it is about twice the rate of a 2-CPU host.
const maxOpsPerSec = 2e6

// reserve sizes the per-object bookkeeping for d more seconds of
// operations, so it grows page by page instead of being copied into ever
// larger slices, whose garbage made peak RSS differ by a tenth between
// runs.
func (r *gcRun) reserve(d time.Duration) {
	ops := int(d.Seconds() * maxOpsPerSec)
	r.guards = slices.Grow(r.guards, ops/r.p.guardEvery)
	r.keyState = slices.Grow(r.keyState, ops/16) // gcHeapPattern sets opTable on one operation in 16
}

func (r *gcRun) phase(d time.Duration, tr *tracer, acc *gcAccum) gcPhase {
	r.minor, r.major = nil, nil
	r.tr, r.acc = tr, acc
	st0, n0, d0, s0 := r.h.Stats, r.n, r.drops, r.salvages
	start := time.Now()
	deadline := start.Add(d)
	at := make([]time.Duration, 0, int(d.Seconds()*maxOpsPerSec/opBatch))
	for r.violation == nil && time.Now().Before(deadline) {
		for k := 0; k < opBatch; k++ {
			r.op()
		}
		at = append(at, time.Since(start))
	}
	ph := gcPhase{ops: r.n - n0, elapsed: time.Since(start), at: at, minor: r.minor, major: r.major,
		barrier: r.h.Stats.BarrierHits - st0.BarrierHits, words: r.h.Stats.WordsAllocated - st0.WordsAllocated,
		drops: r.drops - d0, salv: r.salvages - s0}
	r.tr, r.acc = nil, nil
	return ph
}

// verify is the gc-heap correctness gate, run untimed after the
// measurement: a full collection salvages every dropped guardian
// object exactly once, dropped table keys are gone, and the heap
// passes Verify.
func (r *gcRun) verify() error {
	h := r.h
	h.Collect(h.MaxGeneration())
	r.refresh()
	r.drain()
	if r.violation != nil {
		return r.violation
	}
	var heldGuards, heldKeys int
	for id, s := range r.guards {
		switch s {
		case dropped:
			return fmt.Errorf("dropped guardian object %d not salvaged by a full collection", id)
		case held:
			heldGuards++
		}
	}
	inHold := 0
	for s := 0; s < r.p.holdSlots; s++ {
		if h.VectorRef(r.vHold, s) != obj.False {
			inHold++
		}
	}
	if inHold != heldGuards {
		return fmt.Errorf("%d guardian objects held, %d in the hold vector", heldGuards, inHold)
	}
	for _, s := range r.keyState {
		if s == held {
			heldKeys++
		}
	}
	var bad error
	entries := 0
	r.tbl.ForEach(func(key, _ obj.Value) {
		entries++
		if id := h.Car(key).FixnumValue(); r.keyState[id] != held && bad == nil {
			bad = fmt.Errorf("dropped key %d still in the guarded table", id)
		}
	})
	if bad != nil {
		return bad
	}
	if entries != heldKeys {
		return fmt.Errorf("guarded table has %d entries, %d keys are held", entries, heldKeys)
	}
	if errs := h.Verify(); len(errs) > 0 {
		return fmt.Errorf("heap.Verify: %v (and %d more)", errs[0], len(errs)-1)
	}
	return nil
}

func runGCHeap(p params, host *hostRecord) (*outcome, error) {
	host.HeapWorkers, host.Clients = 0, 1
	ops := gcHeapPattern(p.seed, p.gc.pattern)
	var r *gcRun
	var boots []float64
	for i := 0; i < p.setups; i++ {
		r = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = newGCRun(p.gc, ops); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
	}
	v := values{}
	out := &outcome{metrics: v, report: map[string]any{}}
	r.reserve(p.warmup + p.duration)
	r.phase(p.warmup, nil, nil)
	if !p.trace {
		ph := r.phase(p.duration, nil, nil)
		minor, major := summarize(ph.minor), summarize(ph.major)
		v["setup_s"] = median(boots)
		v["throughput_per_s"] = opBatch * windowRate(ph.at, ph.elapsed, rateWindow)
		addLatencies(v, minor, major, false)
		v["peak_rss_mb"] = peakRSSMiB()
		out.attempted = int(ph.ops)
		out.report["ops_per_s"] = v["throughput_per_s"]
		out.report["ops_per_s_mean"] = float64(ph.ops) / ph.elapsed.Seconds()
		out.report["minor_gc"], out.report["major_gc"] = minor, major
	} else {
		// The middle half is traced; the quarters before and after it
		// are the untraced half the overhead is measured against.
		base := r.phase(p.duration/4, nil, nil)
		tr, acc := newTracer(), &gcAccum{}
		ph := r.phase(p.duration/2, tr, acc)
		base.merge(r.phase(p.duration/4, nil, nil))
		out.attempted = int(base.ops + ph.ops)
		acc.report(v, ph.elapsed, float64(ph.ops))
		v["heap.barrier_hits_per_op"] = ratio(float64(ph.barrier), float64(ph.ops))
		v["heap.words_allocated_per_op"] = ratio(float64(ph.words), float64(ph.ops))
		v["heap.segments_peak"] = float64(r.segPeak)
		v["core.guardian_get_us"] = ratio(us(r.getTime), float64(r.gets))
		v["core.table_access_us"] = ratio(us(r.accessTime), float64(r.accesses))
		v["core.salvaged_per_dropped"] = ratio(float64(ph.salv), float64(ph.drops))
		bt, tt := float64(base.ops)/base.elapsed.Seconds(), float64(ph.ops)/ph.elapsed.Seconds()
		b, bMajor, t := summarize(base.minor), summarize(base.major), summarize(ph.minor)
		addLatencies(v, b, bMajor, true)
		addOverhead(v, bt, tt, b, t)
		addSelfTimes(v, tr)
		out.report["untraced_half"] = map[string]any{"ops_per_s": bt, "minor_gc": b, "major_gc": bMajor}
		out.report["traced_half"] = map[string]any{"ops_per_s": tt, "minor_gc": t, "major_gc": summarize(ph.major)}
		if err := writeSpans(p, tr); err != nil {
			return nil, err
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	out.report["guardian_objects_salvaged"] = r.salvages
	out.report["table_keys"] = len(r.keyState)
	return out, nil
}
