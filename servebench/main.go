// Command servebench measures Bolt as a classification service: it
// starts the real bolt-serve (behind bolt-router where the workload
// says so) on a UNIX socket, drives it from this one process over at
// most two connections in three phases that never overlap, and times
// each layer's public functions in-process on the same inputs.
//
//	servebench --workload mnist-direct --seed 1 --seconds 15 --trace 0
//	servebench steady --runs 5 --seconds 15
//
// The last line of a run's output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end ones with --trace 0,
// per-layer ones with --trace 1). A run whose labels differ from the
// uncompiled forest's, or whose server counters break a property, exits
// non-zero. See README.md for the workloads and what each metric means.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bolt"
	"bolt/internal/serve"
)

// workload is one model and serving arrangement with its traffic.
type workload struct {
	name      string
	dataset   string // "mnist" or "lstw"
	trees     int
	depth     int
	compiled  bool // bolt-serve -compiled artifact; otherwise -model, compiled at start-up
	routed    bool // one bolt-router in front of the backend
	tierTrees int  // bolt-serve -tier-trees (exact mode); 0 is untiered
	batchRows int  // rows per OpBatch request in the batch phase
	openRate  int  // open-loop requests per second, well under the row phase's capacity
}

var workloads = []workload{
	{name: "mnist-direct", dataset: "mnist", trees: 20, depth: 8, compiled: true, batchRows: 256, openRate: 4000},
	{name: "lstw-routed", dataset: "lstw", trees: 10, depth: 4, routed: true, batchRows: 8, openRate: 4000},
	{name: "mnist-tiered", dataset: "mnist", trees: 20, depth: 8, tierTrees: 12, batchRows: 256, openRate: 4000},
}

const (
	// modelSeed fixes each workload's training set and forest, so every
	// run serves the same model; --seed draws the request rows.
	modelSeed    = 2022
	trainSamples = 2000
	poolRows     = 2048
	setups       = 11  // start-ups per run; setup_s is their median
	rounds       = 24  // row/open/batch rounds per run
	rowConns     = 2   // closed-loop connections in the row phase
	probePairs   = 600 // direct/routed round-trip pairs in the hop probe
	// serveWorkers pins bolt-serve's engine pool and batch-kernel
	// worker counts to the host's two vCPUs.
	serveWorkers = "2"
)

// serveOptions are the Phase-1 settings bolt-serve compiles with by
// default, plus the workload's tier split.
func serveOptions(w workload) bolt.Options {
	return bolt.Options{ClusterThreshold: 8, BloomBitsPerKey: 8, Seed: 2022, TierTrees: w.tierTrees}
}

type metric struct {
	name  string
	unit  string
	value float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "servebench steady:", err)
			os.Exit(1)
		}
		return
	}
	ok, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func run(args []string) (bool, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: mnist-direct, lstw-routed or mnist-tiered")
		seed    = fs.Uint64("seed", 1, "seed for the request rows")
		seconds = fs.Int("seconds", 15, "measured seconds, split over the row, open and batch phases")
		traced  = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		bin     = fs.String("bin", ".bench_build/bin", "directory holding bolt-serve and bolt-router")
		work    = fs.String("work", ".bench_build", "directory for sockets, logs and traces")
	)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w.name == "" {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return false, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	b := &bench{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, bin: *bin, dir: dir, work: *work}
	if *traced == 1 {
		b.tr = newTracer()
	}
	defer b.stopAll()
	res, err := b.run()
	if err != nil {
		return false, err
	}
	os.RemoveAll(dir)
	return res.print(os.Stdout), nil
}

// bench is one run of one workload.
type bench struct {
	w    workload
	seed uint64
	dur  time.Duration
	bin  string
	dir  string
	work string
	tr   *tracer
	chk  checker

	procs []*proc // every process started and not yet stopped
}

func (b *bench) sock(name string) string {
	// Relative to the working directory: a UNIX socket path is limited
	// to 107 bytes, and the checkout's absolute path may be long.
	wd, err := os.Getwd()
	if err != nil {
		return filepath.Join(b.dir, name)
	}
	rel, err := filepath.Rel(wd, filepath.Join(b.dir, name))
	if err != nil {
		return filepath.Join(b.dir, name)
	}
	return rel
}

func (b *bench) stopAll() {
	for _, p := range b.procs {
		p.stop()
	}
	b.procs = nil
}

// result is a finished run.
type result struct {
	correct   bool
	failures  []string
	attempted int
	failed    int
	lines     []string
	report    []metric // everything measured, printed for people
	metrics   []metric // the metrics this mode reports in JSON
}

func (r *result) print(out *os.File) bool {
	for _, l := range r.lines {
		fmt.Fprintln(out, l)
	}
	for _, m := range r.report {
		fmt.Fprintf(out, "metric %-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = val{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: encoding the result:", err)
		return false
	}
	fmt.Fprintln(out, string(line))
	return r.correct
}

// segment is one phase of one round: what the client observed, the
// server's counter snapshots before and after, and the serving
// processes' CPU ticks over it.
type segment struct {
	phaseResult
	front0, front1 serve.ServerStats // what the client talks to
	back0, back1   serve.ServerStats // bolt-serve itself
	ticks          uint64
	// The machine's CPU ticks over the segment, and how many of them
	// the hypervisor gave to other guests.
	hostTicks, steal uint64
}

// perRound is the median over rounds of one per-segment figure.
func perRound(segs []segment, f func(s segment) float64) float64 {
	vs := make([]float64, len(segs))
	for i, s := range segs {
		vs[i] = f(s)
	}
	return median(vs)
}

func opCount(st serve.ServerStats, op byte) uint64 {
	for _, o := range st.Ops {
		if o.Op == op {
			return o.Count
		}
	}
	return 0
}

func (b *bench) run() (*result, error) {
	w := b.w
	// Model: trained from a fixed seed, so the served forest is the
	// workload's own; excluded from every timing.
	var train *bolt.Dataset
	if w.dataset == "mnist" {
		train = bolt.SyntheticMNIST(trainSamples, modelSeed)
	} else {
		train = bolt.SyntheticLSTW(trainSamples, modelSeed)
	}
	fst := bolt.Train(train, bolt.ForestConfig{NumTrees: w.trees, Tree: bolt.TreeConfig{MaxDepth: w.depth}, Seed: modelSeed})
	var model bytes.Buffer
	if err := bolt.EncodeForest(&model, fst); err != nil {
		return nil, err
	}
	bf, err := bolt.Compile(fst, serveOptions(w))
	if err != nil {
		return nil, err
	}
	var artifact bytes.Buffer
	if err := bolt.EncodeCompiledForest(&artifact, bf); err != nil {
		return nil, err
	}
	if w.compiled {
		// Time the kernels on the forest bolt-serve decodes, not on the
		// one it was encoded from.
		if bf, err = bolt.DecodeCompiledForest(bytes.NewReader(artifact.Bytes())); err != nil {
			return nil, err
		}
	}
	modelPath := filepath.Join(b.dir, "forest.bin")
	artifactPath := filepath.Join(b.dir, "forest.bfc")
	if err := os.WriteFile(modelPath, model.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(artifactPath, artifact.Bytes(), 0o644); err != nil {
		return nil, err
	}

	// Requests: rows drawn from --seed, labelled by the uncompiled
	// forest's own tree walk.
	var pool *bolt.Dataset
	if w.dataset == "mnist" {
		pool = bolt.SyntheticMNIST(poolRows, b.seed+1<<32)
	} else {
		pool = bolt.SyntheticLSTW(poolRows, b.seed+1<<32)
	}
	want := make([]int, len(pool.X))
	for i, x := range pool.X {
		want[i] = fst.Predict(x)
	}
	in := newInputs(pool.X, want, w.batchRows)

	res := &result{}
	report := func(name, unit string, v float64) { res.report = append(res.report, metric{name, unit, v}) }

	heap, err := b.modelHeapKB(model.Bytes(), artifact.Bytes())
	if err != nil {
		return nil, err
	}

	// Set-up: launch to first answered Classify, several times.
	serveArgs := []string{"-socket", b.sock("serve.sock"), "-workers", serveWorkers, "-kernel-workers", serveWorkers}
	if w.compiled {
		serveArgs = append(serveArgs, "-compiled", artifactPath)
	} else {
		serveArgs = append(serveArgs, "-model", modelPath)
	}
	if w.tierTrees > 0 {
		serveArgs = append(serveArgs, "-tier-trees", fmt.Sprint(w.tierTrees))
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			b.stopAll()
		}
		s, err := b.launch(serveArgs, in.rowPay[0])
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, s.Seconds())
	}
	front, back := b.sock("serve.sock"), b.sock("serve.sock")
	if w.routed {
		front = b.sock("router.sock")
	}
	// Counter snapshots go over connections of their own: one to the
	// front end and, behind a router, one to the backend.
	fc, err := dial(front)
	if err != nil {
		return nil, err
	}
	defer fc.close()
	bc := fc
	if w.routed {
		if bc, err = dial(back); err != nil {
			return nil, err
		}
		defer bc.close()
	}

	// The load generator keeps to one P during traffic: its idle Ps
	// would otherwise spin looking for work on the two vCPUs the
	// servers need. The in-process kernels run after, on every P.
	prevProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prevProcs)
	// Phases, one after another, in rounds: every round runs a row, an
	// open and a batch segment, so each phase samples the whole run
	// rather than one stretch of it (a shared host's speed can drift by
	// tens of percent over seconds). A short untimed warm-up comes first.
	if _, err := closedLoop(front, in, serve.OpClassify, rowConns, 200*time.Millisecond, nil, 0, &b.chk); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	type phase struct {
		name string
		frac float64
		run  func(d time.Duration, id uint64) (phaseResult, error)
	}
	phases := []phase{
		{"row", 0.4, func(d time.Duration, id uint64) (phaseResult, error) {
			return closedLoop(front, in, serve.OpClassify, rowConns, d, b.tr, id, &b.chk)
		}},
		{"open", 0.3, func(d time.Duration, id uint64) (phaseResult, error) {
			return openLoop(front, in, w.openRate, d, b.tr, id, &b.chk)
		}},
		{"batch", 0.3, func(d time.Duration, id uint64) (phaseResult, error) {
			return closedLoop(front, in, serve.OpBatch, 1, d, b.tr, id, &b.chk)
		}},
	}
	segs := make(map[string][]segment)
	for round := 0; round < rounds; round++ {
		for _, ph := range phases {
			var s segment
			if s.front0, s.back0, err = snapshot(fc, bc); err != nil {
				return nil, err
			}
			t0, err := b.ticks()
			if err != nil {
				return nil, err
			}
			steal0, total0, err := hostSteal()
			if err != nil {
				return nil, err
			}
			id := b.tr.id()
			start := time.Now()
			s.phaseResult, err = ph.run(time.Duration(float64(b.dur)*ph.frac/rounds), id)
			if err != nil {
				return nil, fmt.Errorf("%s phase: %w", ph.name, err)
			}
			if b.tr != nil {
				pb := b.tr.buf()
				pb.record("phase."+ph.name, start, time.Now(), id, 0, id)
				pb.flush()
			}
			t1, err := b.ticks()
			if err != nil {
				return nil, err
			}
			s.ticks = t1 - t0
			steal1, total1, err := hostSteal()
			if err != nil {
				return nil, err
			}
			s.steal, s.hostTicks = steal1-steal0, total1-total0
			if s.front1, s.back1, err = snapshot(fc, bc); err != nil {
				return nil, err
			}
			b.checkSegment(ph.name, s)
			segs[ph.name] = append(segs[ph.name], s)
		}
	}
	rssKB := uint64(0)
	for _, p := range b.procs {
		kb, err := peakRSSKB(p.pid())
		if err != nil {
			return nil, err
		}
		rssKB += kb
	}
	b.checkRun(segs)

	// Each phase's figures pool its segments from every round.
	tot := make(map[string]segment)
	for _, ph := range phases {
		var t segment
		for _, s := range segs[ph.name] {
			t.merge(s.phaseResult)
			t.elapsed += s.elapsed
			t.ticks += s.ticks
			t.lateMax = math.Max(t.lateMax, s.lateMax)
			t.lateMean += s.lateMean / rounds
		}
		tot[ph.name] = t
		res.attempted += t.attempted
		res.lines = append(res.lines, fmt.Sprintf("phase %-5s attempted=%d failed=%d rows=%d answered=%d elapsed_s=%.3f rounds=%d",
			ph.name, t.attempted, t.failed, t.rows, len(t.lat), t.elapsed.Seconds(), rounds))
	}
	row, open, batch := tot["row"], tot["open"], tot["batch"]
	res.lines = append(res.lines, fmt.Sprintf("open-loop generator: %d/s, lateness mean %.1f us, max %.1f us",
		w.openRate, open.lateMean, open.lateMax))
	cpuUs := func(ticks uint64) float64 { return float64(ticks) * 1e6 / clockTicksPerSecond }
	rate := func(s segment) float64 { return float64(len(s.lat)) / s.elapsed.Seconds() }
	rowsRate := func(s segment) float64 { return float64(s.rows) / s.elapsed.Seconds() }
	pct := func(p float64) func(s segment) float64 {
		return func(s segment) float64 { return percentile(s.lat, p) }
	}
	stolen := func(steal, ticks uint64) float64 { return 100 * float64(steal) / float64(max(ticks, 1)) }

	// One line per round puts the wall-clock figures beside the share of
	// the machine's CPU time the hypervisor gave to other guests while
	// they were measured, so a stolen round or run can be told from a
	// slower program.
	var steal, hostTicks uint64
	for i := 0; i < rounds; i++ {
		r, o, bt := segs["row"][i], segs["open"][i], segs["batch"][i]
		res.lines = append(res.lines, fmt.Sprintf("round %2d  row %6.0f/s p50 %4.0f p99 %5.0f us steal %4.1f%%  open p50 %5.0f p90 %5.0f us steal %4.1f%%  batch %6.0f rows/s steal %4.1f%%",
			i, rate(r), pct(0.5)(r), pct(0.99)(r), stolen(r.steal, r.hostTicks),
			pct(0.5)(o), pct(0.9)(o), stolen(o.steal, o.hostTicks),
			rowsRate(bt), stolen(bt.steal, bt.hostTicks)))
		for _, s := range []segment{r, o, bt} {
			steal += s.steal
			hostTicks += s.hostTicks
		}
	}
	res.lines = append(res.lines, fmt.Sprintf("host steal: %.1f%% of the machine's CPU time over the phases", stolen(steal, hostTicks)))

	// End-to-end, judged. A figure taken per round is the median of its
	// values over the rounds: a stall on the host spoils a round, not the
	// run. These are the figures that hold still while the hypervisor
	// takes a varying share of the two vCPUs: a median round trip, CPU
	// time per request (time stolen from a process is not charged to it)
	// and memory.
	e2e := []metric{
		{"setup_s", "s", median(setupTimes)},
		{"row_p50_us", "us", perRound(segs["row"], pct(0.50))},
		{"row_cpu_us", "us", perRound(segs["row"], func(s segment) float64 { return cpuUs(s.ticks) / float64(s.attempted) })},
		{"batch_cpu_us_per_row", "us", perRound(segs["batch"], func(s segment) float64 { return cpuUs(s.ticks) / float64(s.rows) })},
		{"server_rss_mb", "MB", float64(rssKB) / 1024},
		{"model_heap_kb", "KB", heap},
	}
	res.report = append(res.report, e2e...)
	// Printed, not judged: throughput and tail latency follow the steal
	// share, and move by tens of percent between runs of the same code
	// as it changes (README, "Known noise sources").
	report("row_rps", "1/s", perRound(segs["row"], rate))
	report("row_p99_us", "us", perRound(segs["row"], pct(0.99)))
	report("open_p50_us", "us", perRound(segs["open"], pct(0.50)))
	report("open_p90_us", "us", perRound(segs["open"], pct(0.90)))
	report("batch_rows_per_s", "rows/s", perRound(segs["batch"], rowsRate))
	report("batch_p50_us", "us", perRound(segs["batch"], pct(0.50)))
	report("open_p99_us", "us", perRound(segs["open"], pct(0.99)))
	report("open_p999_us", "us", percentile(open.lat, 0.999))
	report("open_lateness_max_us", "us", open.lateMax)

	// Per-layer, serving side: observed by the client.
	var flushes, flushRows, coalesced uint64
	for _, s := range append(append([]segment(nil), segs["row"]...), segs["open"]...) {
		flushes += s.back1.CoalescedBatches - s.back0.CoalescedBatches
		flushRows += s.back1.CoalescedRows - s.back0.CoalescedRows
		coalesced += s.back1.CoalescedRequests - s.back0.CoalescedRequests
	}
	perFlush := 0.0
	if flushes > 0 {
		perFlush = float64(flushRows) / float64(flushes)
	}
	layers := []metric{
		{"row_service_us", "us", median(row.svc)},
		{"open_service_us", "us", median(open.svc)},
		{"batch_service_us", "us", median(batch.svc)},
		{"row_transport_us", "us", median(row.transport)},
		{"open_transport_us", "us", median(open.transport)},
		{"batch_transport_us", "us", median(batch.transport)},
		{"coalesce_rows_per_flush", "rows", perFlush},
		{"coalesced_share", "fraction", float64(coalesced) / float64(row.attempted+open.attempted)},
		{"open_lateness_mean_us", "us", open.lateMean},
	}

	if b.tr == nil {
		b.stopAll()
		res.metrics = e2e
		res.report = append(res.report, layers...)
		return b.finish(res), nil
	}

	// Traced run only: the router hop, then the in-process kernels
	// with the servers stopped.
	hop, retries, shed, n, err := b.routerHop(in)
	if err != nil {
		return nil, err
	}
	res.attempted += n
	res.lines = append(res.lines, fmt.Sprintf("phase probe attempted=%d", n))
	layers = append(layers,
		metric{"router_hop_us", "us", hop},
		metric{"router_retries", "count", float64(retries)},
		metric{"router_shed", "count", float64(shed)},
	)
	b.stopAll()
	runtime.GOMAXPROCS(prevProcs)
	kl, err := kernelLayers(w, fst, bf, artifact.Bytes(), in, b.tr, &b.chk)
	if err != nil {
		return nil, err
	}
	layers = append(kl, layers...)
	res.report = append(res.report, layers...)
	res.metrics = layers

	traceDir := filepath.Join(b.work, "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	rows, err := b.tr.writeTrace(base+".spans.tsv", base+".selftime.txt")
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	writeSelfTable(&sb, rows)
	res.lines = append(res.lines, "self time per span (trace in "+base+".spans.tsv):", strings.TrimRight(sb.String(), "\n"))
	return b.finish(res), nil
}

func (b *bench) finish(res *result) *result {
	n, first := b.chk.failures()
	res.correct = n == 0
	res.failures = first
	if n > len(first) {
		res.failures = append(res.failures, fmt.Sprintf("... and %d more", n-len(first)))
	}
	res.failed = int(b.chk.failed.Load())
	return res
}

// launch starts the workload's serving processes and returns the time
// from launch to the first answered Classify through the front end.
// With a router, that includes the router admitting its backend. The
// router starts once the backend answers: started together, the
// router's first health probe races the backend's bind, and a lost
// race costs a whole probe interval (set-up read 22 ms or 257 ms,
// depending on the race).
func (b *bench) launch(serveArgs []string, probe []byte) (time.Duration, error) {
	for _, s := range []string{"serve.sock", "router.sock"} {
		if err := os.Remove(b.sock(s)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return 0, err
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	t0 := time.Now()
	sp, err := startProc(b.dir, "serve", filepath.Join(b.bin, "bolt-serve"), serveArgs...)
	if err != nil {
		return 0, err
	}
	b.procs = append(b.procs, sp)
	if !b.w.routed {
		err := waitUntil(deadline, b.procs, func() error { return classifyOnce(b.sock("serve.sock"), probe) })
		return time.Since(t0), err
	}
	if err := waitUntil(deadline, b.procs, func() error { return pingOnce(b.sock("serve.sock")) }); err != nil {
		return 0, err
	}
	rp, err := startProc(b.dir, "router", filepath.Join(b.bin, "bolt-router"),
		"-listen", b.sock("router.sock"), "-backends", b.sock("serve.sock"))
	if err != nil {
		return 0, err
	}
	b.procs = append(b.procs, rp)
	err = waitUntil(deadline, b.procs, func() error { return routerAdmitted(b.sock("router.sock")) })
	if err == nil {
		err = waitUntil(deadline, b.procs, func() error { return classifyOnce(b.sock("router.sock"), probe) })
	}
	return time.Since(t0), err
}

func pingOnce(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, _, err := c.call(serve.OpPing, nil)
	if err == nil && status != serve.StatusOK {
		err = fmt.Errorf("ping: status %d", status)
	}
	return err
}

// routerAdmitted succeeds once the router counts a backend in rotation.
func routerAdmitted(addr string) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	h, err := c.health()
	if err == nil && h.Workers < 1 {
		err = errors.New("router has no backend in rotation")
	}
	return err
}

// snapshot reads the front end's and the backend's counters; without a
// router they are one server, asked once.
func snapshot(fc, bc *conn) (front, back serve.ServerStats, err error) {
	if front, err = fc.stats(); err != nil || bc == fc {
		return front, front, err
	}
	back, err = bc.stats()
	return front, back, err
}

// ticks sums the serving processes' CPU time.
func (b *bench) ticks() (uint64, error) {
	var sum uint64
	for _, p := range b.procs {
		t, err := cpuTicks(p.pid())
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// checkPhase checks the server's counters against what one phase sent:
// the front end saw every request plus the closing stats call, the
// backend ran each one, and nothing failed.
func (b *bench) checkSegment(name string, ps segment) {
	sent := uint64(ps.attempted)
	if d := ps.front1.Requests - ps.front0.Requests; d != sent+1 {
		b.chk.fail("%s: front end counted %d requests for %d sent (+1 stats call)", name, d, sent)
	}
	op := serve.OpClassify
	if name == "batch" {
		op = serve.OpBatch
	}
	if d := opCount(ps.back1, op) - opCount(ps.back0, op); d != sent {
		b.chk.fail("%s: backend ran %d %c requests for %d sent", name, d, op, sent)
	}
	if d := ps.front1.Errors - ps.front0.Errors; d != 0 {
		b.chk.fail("%s: front end counted %d errors", name, d)
	}
	if d := ps.back1.Errors - ps.back0.Errors; d != 0 {
		b.chk.fail("%s: backend counted %d errors", name, d)
	}
	if ps.front1.Router != nil && ps.front0.Router != nil {
		if d := ps.front1.Router.Retries - ps.front0.Router.Retries; d != 0 {
			b.chk.fail("%s: router retried %d requests", name, d)
		}
		if d := ps.front1.Router.Shed - ps.front0.Router.Shed; d != 0 {
			b.chk.fail("%s: router shed %d requests", name, d)
		}
	}
}

// checkRun checks the tier counters over all phases: untouched without
// a tier split, and some rows answered at tier 0 with one.
func (b *bench) checkRun(segs map[string][]segment) {
	var answered, escalated uint64
	for _, ss := range segs {
		for _, s := range ss {
			answered += s.back1.Tier0Answered - s.back0.Tier0Answered
			escalated += s.back1.TierEscalated - s.back0.TierEscalated
		}
	}
	if b.w.tierTrees == 0 && answered+escalated != 0 {
		b.chk.fail("untiered workload moved the tier counters (%d answered, %d escalated)", answered, escalated)
	}
	if b.w.tierTrees > 0 && answered == 0 {
		b.chk.fail("tiered workload answered no row at tier 0 (%d escalated)", escalated)
	}
}

// routerHop measures the router hop with an alternating probe. A
// routed workload probes its own router; otherwise a router is started
// in front of the running backend for the probe alone. It returns the
// hop in µs, the router's retries and sheds over the probe, and the
// requests sent.
func (b *bench) routerHop(in *inputs) (float64, uint64, uint64, int, error) {
	routed := b.sock("router.sock")
	if !b.w.routed {
		rp, err := startProc(b.dir, "probe-router", filepath.Join(b.bin, "bolt-router"),
			"-listen", routed, "-backends", b.sock("serve.sock"))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer rp.stop()
		deadline := time.Now().Add(60 * time.Second)
		ps := append(append([]*proc(nil), b.procs...), rp)
		if err := waitUntil(deadline, ps, func() error { return routerAdmitted(routed) }); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	rc, err := dial(routed)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer rc.close()
	st0, err := rc.stats()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	hop, n, err := hopProbe(b.sock("serve.sock"), routed, in, probePairs, b.tr, &b.chk)
	if err != nil {
		return 0, 0, 0, n, err
	}
	st1, err := rc.stats()
	if err != nil {
		return 0, 0, 0, n, err
	}
	if st0.Router == nil || st1.Router == nil {
		return 0, 0, 0, n, errors.New("router stats carry no router section")
	}
	retries := st1.Router.Retries - st0.Router.Retries
	shed := st1.Router.Shed - st0.Router.Shed
	if retries != 0 || shed != 0 {
		b.chk.fail("router probe: %d retries, %d shed", retries, shed)
	}
	return hop, retries, shed, n, nil
}

// modelHeapKB is the live heap the workload's compiled model retains
// once loaded the way bolt-serve loads it: decoded from the artifact,
// or decoded from the forest and compiled. It is the HeapAlloc
// difference around the load after full collections, median of three.
func (b *bench) modelHeapKB(model, artifact []byte) (float64, error) {
	load := func() (*bolt.CompiledForest, error) {
		if b.w.compiled {
			return bolt.DecodeCompiledForest(bytes.NewReader(artifact))
		}
		f, err := bolt.DecodeForest(bytes.NewReader(model))
		if err != nil {
			return nil, err
		}
		return bolt.Compile(f, serveOptions(b.w))
	}
	var kbs []float64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		bf, err := load()
		if err != nil {
			return 0, err
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(bf)
		kbs = append(kbs, (float64(after.HeapAlloc)-float64(before.HeapAlloc))/1024)
	}
	return median(kbs), nil
}
