package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// reply is one served request as the benchmark's OnReply saw it.
type reply struct {
	text string
	err  error
	at   time.Time // when OnReply ran: the end of the request's latency
}

// router hands each reply to the client waiting on that session. Every
// session has at most one request in flight, so a session id is enough
// to find the waiter; a reply that arrives before its waiter (Register
// enqueues the init request before it returns) is parked until then.
type router struct {
	mu      sync.Mutex
	waiting map[server.SessionID]chan reply
	early   map[server.SessionID]reply
}

func newRouter() *router {
	return &router{waiting: make(map[server.SessionID]chan reply), early: make(map[server.SessionID]reply)}
}

func (r *router) onReply(id server.SessionID, text string, err error) {
	rep := reply{text: text, err: err, at: time.Now()}
	r.mu.Lock()
	ch, ok := r.waiting[id]
	if ok {
		delete(r.waiting, id)
	} else {
		r.early[id] = rep
	}
	r.mu.Unlock()
	if ok {
		ch <- rep
	}
}

// wait blocks until the reply for id arrives. ch must have a buffer of
// one and belong to the caller.
func (r *router) wait(id server.SessionID, ch chan reply) reply {
	r.mu.Lock()
	if rep, ok := r.early[id]; ok {
		delete(r.early, id)
		r.mu.Unlock()
		return rep
	}
	r.waiting[id] = ch
	r.mu.Unlock()
	return <-ch
}

// standingInit is the init request of every standing session: it
// defines the procedures the serve requests call and holds a guarded
// port for the session's whole life.
const standingInit = standingFib + `
(define held-port (open-session-port "held.tmp"))
(define (take-message)
  (let ((m (receive)))
    (if m (begin (message-done m) m) #f)))
'ready`

// standingFib is the fib definition of standingInit, which the scheme
// probe evaluates too.
const standingFib = `(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))`

// population is a started server with its standing sessions.
type population struct {
	srv    *server.Server
	router *router
	ids    []server.SessionID
	acc    *gcAccum     // per-layer collection figures of every session heap
	rec    *atomic.Bool // turns acc on
}

// serverConfig is the configuration a user of the server would run:
// the default session heap, one executor and one GC worker. The session
// heap's policy is wrapped so a traced run can read every collection's
// report; the wrapper only forwards until rec is set.
func serverConfig(r *router, acc *gcAccum, rec *atomic.Bool) server.Config {
	h := server.DefaultSessionHeapConfig()
	h.Policy = recordingPolicy{Policy: h.Policy, acc: acc, on: rec}
	return server.Config{Heap: h, Executors: 1, GCWorkers: 1, OnReply: r.onReply}
}

// bootPopulation starts a server and registers n standing sessions,
// waiting for every init reply. Its duration is one set-up: the
// session template is built by the first Register.
func bootPopulation(n int, trace bool) (*population, time.Duration, []time.Duration, error) {
	pop := &population{router: newRouter(), acc: &gcAccum{}, rec: &atomic.Bool{}}
	cfg := serverConfig(pop.router, pop.acc, pop.rec)
	if !trace {
		cfg.Heap = server.DefaultSessionHeapConfig()
	}
	start := time.Now()
	pop.srv = server.New(cfg)
	pop.srv.Start()
	var regs []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := pop.srv.Register(standingInit)
		regs = append(regs, time.Since(t0))
		if err != nil {
			pop.srv.Close()
			return nil, 0, nil, fmt.Errorf("register standing session %d: %w", i, err)
		}
		pop.ids = append(pop.ids, id)
	}
	ch := make(chan reply, 1)
	for _, id := range pop.ids {
		if rep := pop.router.wait(id, ch); rep.err != nil || rep.text != "ready" {
			pop.srv.Close()
			return nil, 0, nil, fmt.Errorf("standing session %d init: reply %q, err %v", id, rep.text, rep.err)
		}
	}
	if !pop.srv.WaitIdle(time.Minute) {
		pop.srv.Close()
		return nil, 0, nil, fmt.Errorf("standing population did not quiesce")
	}
	return pop, time.Since(start), regs, nil
}

// setUp boots the standing population p.setups times and keeps the
// last one, returning the median boot in seconds and the last boot's
// Register call durations. Earlier populations are closed and dropped
// before the next boot so only one is live at a time.
func setUp(p params) (*population, float64, []time.Duration, error) {
	var boots []float64
	var pop *population
	var regs []time.Duration
	for i := 0; i < p.setups; i++ {
		if pop != nil {
			pop.srv.Close()
			pop = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		pop, d, regs, err = bootPopulation(p.sessions, p.trace)
		if err != nil {
			return nil, 0, nil, err
		}
		boots = append(boots, d.Seconds())
	}
	return pop, median(boots), regs, nil
}

// heapTotals sums the counters of the live sessions' heaps. Callers
// hold the server quiescent (WaitIdle) so no worker owns a heap.
type heapTotals struct {
	sessions  int
	barrier   uint64
	words     uint64
	cow       uint64
	segments  int
	objects   uint64
	ports     int
	resources int
}

func sumHeaps(srv *server.Server, ids []server.SessionID) heapTotals {
	var t heapTotals
	for _, id := range ids {
		s := srv.Session(id)
		if s == nil {
			continue
		}
		h := s.Heap()
		t.sessions++
		t.barrier += h.Stats.BarrierHits
		t.words += h.Stats.WordsAllocated
		t.cow += h.COWCopies()
		t.segments += h.SegmentsInUse()
		c := h.Census()
		t.objects += c.Total().Objects
		for _, ev := range s.ReclaimLog() {
			if ev.Kind == "port" {
				t.ports++
			} else {
				t.resources++
			}
		}
	}
	return t
}

// sessionHeapWorkers is the collector worker count of every session
// heap, for the host record.
func sessionHeapWorkers() int { return server.DefaultSessionHeapConfig().Workers }

// fanOut runs f for 0..n-1 on n goroutines, waits for all of them and
// returns their results, or the first error by index.
func fanOut[T any](n int, f func(i int) (T, error)) ([]T, error) {
	res := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}
