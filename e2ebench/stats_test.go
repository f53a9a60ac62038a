package main

import (
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // rank(50) = 9: only 9 samples beyond
		{20, 50, true},
		{99, 50, true},
		{100, 90, true}, // rank(90) = 89: exactly 10 beyond
		{999, 90, true},
		{1000, 99, true}, // rank(99) = 989: exactly 10 beyond
		{1000000, 99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok {
			if beyond := tc.n - (rank(got, tc.n) + 1); beyond < minBeyond {
				t.Errorf("n=%d: p%v has %d samples beyond", tc.n, got, beyond)
			}
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 0, 1000)
	for i := 1000; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	got := summarize(xs)
	want := timing{N: 1000, P50: 500, TailPct: 99, Tail: 990}
	if got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	small := summarize([]float64{3, 1, 2})
	if small.N != 3 || small.TailPct != 100 || small.Tail != 3 {
		t.Fatalf("summarize of 3 samples = %+v, want the maximum as the 100th percentile", small)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.origin.Add(time.Duration(us) * time.Microsecond) }
	root := tr.id()
	tr.leaf(root, "server.send", at(1), at(3))
	tr.leaf(root, "server.send", at(4), at(5))
	tr.add(root, 0, "request", "fib", at(0), at(10))
	self := tr.selfTimes()
	if self["request"] != 7*time.Microsecond || self["server.send"] != 1500*time.Nanosecond {
		t.Fatalf("self times = %v, want request 7µs and server.send 1.5µs", self)
	}
	path := t.TempDir() + "/spans/x.jsonl"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
}

func TestWindowRateIsMedianOfWholeWindows(t *testing.T) {
	msec := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	// Four whole 100 ms windows holding 2, 5, 3 and 0 completions; the
	// completion at 450 ms lies in the partial fifth window and is left out.
	at := []time.Duration{msec(10), msec(20), msec(100), msec(110), msec(120), msec(130), msec(199), msec(200), msec(250), msec(299), msec(450)}
	if got := windowRate(at, msec(470), msec(100)); got != 20 {
		t.Errorf("windowRate = %v/s, want the median window's 2 per 100 ms = 20/s", got)
	}
	if got := windowRate(at[:3], msec(50), msec(100)); got != 60 {
		t.Errorf("windowRate shorter than a window = %v/s, want the mean rate 60/s", got)
	}
}
