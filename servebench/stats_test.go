package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 50}, {0.90, 90}, {0.99, 99}, {0.999, 100}, {1, 100}, {0.001, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10.5, 2.25, 7, 7, 1, 100, 4}, [3]float64{2.25, 7, 10.5}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestSpreadShare(t *testing.T) {
	got, err := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadShare = %g, want %g", got, want)
	}
	if got, _ := spreadShare([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal values = %g, want 0", got)
	}
}

func TestBoundCheck(t *testing.T) {
	if !agree(100, 110, 0.1) || !agree(100, 90, 0.1) {
		t.Error("a 10% shift should agree within a 0.1 bound")
	}
	if agree(100, 111, 0.1) || agree(100, 89, 0.1) {
		t.Error("an 11% shift should not agree within a 0.1 bound")
	}
	if got := worseShare(100, 120, "lower"); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("latency 100→120 worse by %g, want 0.2", got)
	}
	if got := worseShare(100, 120, "higher"); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("throughput 100→120 worse by %g, want -0.2", got)
	}
	if got := worseShare(200, 150, "higher"); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("throughput 200→150 worse by %g, want 0.25", got)
	}
}

func TestLateness(t *testing.T) {
	due := []int64{0, 250, 500, 750, 1000}
	// One wake at 900 sends the four requests due by then; the last
	// one goes out on time at 1000.
	sent := []int64{900, 900, 900, 900, 1000}
	mean, max, err := lateness(due, sent)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(900+650+400+150+0) / 5; mean != want {
		t.Errorf("mean lateness = %g, want %g", mean, want)
	}
	if max != 900 {
		t.Errorf("max lateness = %g, want 900", max)
	}
	if _, _, err := lateness([]int64{100}, []int64{99}); err == nil {
		t.Error("a send before its due time should be an error")
	}
	if _, _, err := lateness([]int64{1, 2}, []int64{1}); err == nil {
		t.Error("mismatched lengths should be an error")
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// A command name holding spaces and a parenthesis must not shift
	// the fields that follow it.
	stat := "4242 (bolt serve) x) S 1 4242 4242 0 -1 4194560 2716 0 0 0 1234 567 0 0 20 0 9 0 123456 1234567 890 18446744073709551615\n"
	u, s, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if u != 1234 || s != 567 {
		t.Errorf("utime, stime = %d, %d; want 1234, 567", u, s)
	}
	if _, _, err := parseProcStatCPU("4242 (short) S 1 2"); err == nil {
		t.Error("a truncated stat line should be an error")
	}
	if _, _, err := parseProcStatCPU("no name here"); err == nil {
		t.Error("a stat line without a command name should be an error")
	}
}

func TestParseHostStat(t *testing.T) {
	stat := "cpu  750833 0 314222 1392156 539 0 6744 104367 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n"
	steal, total, err := parseHostStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if steal != 104367 || total != 750833+314222+1392156+539+6744+104367 {
		t.Errorf("steal, total = %d, %d; want 104367, %d", steal, total, 750833+314222+1392156+539+6744+104367)
	}
	if _, _, err := parseHostStat("cpu  1 2 3 4 5 6 7\n"); err == nil {
		t.Error("a cpu line without a steal value should be an error")
	}
	if _, _, err := parseHostStat("intr 1 2 3 4 5 6 7 8 9\n"); err == nil {
		t.Error("a first line other than the cpu line should be an error")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tbolt-serve\nVmPeak:\t  812344 kB\nVmHWM:\t   19876 kB\nVmRSS:\t   18000 kB\n"
	kb, err := parseStatusKB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if kb != 19876 {
		t.Errorf("VmHWM = %d kB, want 19876", kb)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("a missing key should be an error")
	}
}

func TestSelfTimes(t *testing.T) {
	// A phase with two overlapping calls; one call carries a service
	// child. Self time is duration minus the union of the children.
	spans := []span{
		{Name: "phase.row", Start: 0, End: 100, ID: 1},
		{Name: "client.classify", Start: 10, End: 50, ID: 2, Parent: 1, Req: 2},
		{Name: "client.classify", Start: 40, End: 90, ID: 3, Parent: 1, Req: 3},
		{Name: "serve.service", Start: 20, End: 30, ID: 4, Parent: 2, Req: 2},
	}
	got := make(map[string]selfRow)
	for _, r := range selfTimes(spans) {
		got[r.Name] = r
	}
	if r := got["phase.row"]; r.SelfNs != 100-80 || r.TotalNs != 100 {
		t.Errorf("phase self/total = %d/%d, want 20/100", r.SelfNs, r.TotalNs)
	}
	if r := got["client.classify"]; r.Count != 2 || r.SelfNs != 30+50 {
		t.Errorf("client count/self = %d/%d, want 2/80", r.Count, r.SelfNs)
	}
	if r := got["serve.service"]; r.SelfNs != 10 {
		t.Errorf("service self = %d, want 10", r.SelfNs)
	}
}
