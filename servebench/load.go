package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bolt/internal/serve"
)

// inputs are one run's generated request rows with the labels the
// uncompiled forest gives them, and the request payloads encoded once
// up front so no timed loop pays for encoding.
type inputs struct {
	X         [][]float32
	want      []int
	rowPay    [][]byte // OpClassify payload of row i
	batchRows int
	batchPay  [][]byte // OpBatch payload of rows [b·batchRows, (b+1)·batchRows)
}

func newInputs(X [][]float32, want []int, batchRows int) *inputs {
	in := &inputs{X: X, want: want, batchRows: batchRows}
	for _, x := range X {
		in.rowPay = append(in.rowPay, encodeRows([][]float32{x}, false))
	}
	for lo := 0; lo+batchRows <= len(X); lo += batchRows {
		in.batchPay = append(in.batchPay, encodeRows(X[lo:lo+batchRows], true))
	}
	return in
}

// encodeRows packs rows as little-endian float32 features, the wire
// form of OpClassify (one row, no count) and OpBatch (u32 count first).
func encodeRows(X [][]float32, counted bool) []byte {
	var buf []byte
	if counted {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(X)))
	}
	for _, x := range X {
		for _, v := range x {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
	}
	return buf
}

// checker collects property and label failures from every goroutine;
// any failure makes the run incorrect.
type checker struct {
	mu     sync.Mutex
	n      int
	first  []string
	failed atomic.Int64 // requests answered with a non-OK status
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 10 {
		c.first = append(c.first, fmt.Sprintf(format, args...))
	}
}

func (c *checker) failures() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, append([]string(nil), c.first...)
}

// phaseResult is what the client observed over one phase.
type phaseResult struct {
	attempted int
	failed    int
	rows      int // rows classified
	elapsed   time.Duration
	lat       []float64 // µs per request: round trip, or from due time in the open loop
	svc       []float64 // µs, the serviceNs each reply carried
	transport []float64 // µs, round trip minus serviceNs
	// Open loop only: how late the generator wrote requests, in µs.
	lateMean, lateMax float64
}

func (r *phaseResult) merge(o phaseResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.rows += o.rows
	r.lat = append(r.lat, o.lat...)
	r.svc = append(r.svc, o.svc...)
	r.transport = append(r.transport, o.transport...)
}

// observe records one answered request's timings and checks that the
// server's own clock fits inside the round trip it was measured in.
func (r *phaseResult) observe(chk *checker, lat, rtt time.Duration, serviceNs uint64) {
	if serviceNs > uint64(rtt.Nanoseconds()) {
		chk.fail("serviceNs %d exceeds its round trip %d ns", serviceNs, rtt.Nanoseconds())
	}
	r.lat = append(r.lat, float64(lat.Nanoseconds())/1e3)
	r.svc = append(r.svc, float64(serviceNs)/1e3)
	r.transport = append(r.transport, float64(rtt.Nanoseconds()-int64(serviceNs))/1e3)
}

// checkClassify decodes a classify reply for row k and checks its
// label against the uncompiled forest's.
func checkClassify(chk *checker, in *inputs, k int, payload []byte) (uint64, bool) {
	if len(payload) != 12 {
		chk.fail("classify reply of %d bytes, want 12", len(payload))
		return 0, false
	}
	if got := int(binary.LittleEndian.Uint32(payload)); got != in.want[k] {
		chk.fail("row %d: served label %d, forest says %d", k, got, in.want[k])
	}
	return binary.LittleEndian.Uint64(payload[4:]), true
}

// checkBatch decodes a batch reply for window b and checks each label.
func checkBatch(chk *checker, in *inputs, b int, payload []byte) (uint64, bool) {
	n := in.batchRows
	if len(payload) != 8+4*n {
		chk.fail("batch reply of %d bytes, want %d", len(payload), 8+4*n)
		return 0, false
	}
	for i := 0; i < n; i++ {
		k := b*n + i
		if got := int(binary.LittleEndian.Uint32(payload[8+4*i:])); got != in.want[k] {
			chk.fail("batch row %d: served label %d, forest says %d", k, got, in.want[k])
		}
	}
	return binary.LittleEndian.Uint64(payload), true
}

// closedLoop runs conns connections, each sending its next request only
// after the previous reply, until dur has passed. Connection g sends
// rows (or batch windows) g, g+conns, g+2·conns, ... of the inputs.
func closedLoop(addr string, in *inputs, op byte, conns int, dur time.Duration, tr *tracer, phaseID uint64, chk *checker) (phaseResult, error) {
	results := make([]phaseResult, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = closedConn(addr, in, op, g, conns, start, dur, tr, phaseID, chk)
		}(g)
	}
	wg.Wait()
	var out phaseResult
	out.elapsed = time.Since(start)
	for g := range results {
		if errs[g] != nil {
			return out, errs[g]
		}
		out.merge(results[g])
	}
	return out, nil
}

func closedConn(addr string, in *inputs, op byte, g, conns int, start time.Time, dur time.Duration, tr *tracer, phaseID uint64, chk *checker) (phaseResult, error) {
	var r phaseResult
	c, err := dial(addr)
	if err != nil {
		return r, err
	}
	defer c.close()
	if err := c.c.SetDeadline(start.Add(dur + 10*time.Second)); err != nil {
		return r, err
	}
	buf := tr.buf()
	defer buf.flush()
	name := "client.classify"
	items := len(in.rowPay)
	if op == serve.OpBatch {
		name, items = "client.batch", len(in.batchPay)
	}
	for i := g; time.Since(start) < dur; i += conns {
		k := i % items
		payload := in.rowPay[k]
		if op == serve.OpBatch {
			payload = in.batchPay[k]
		}
		r.attempted++
		t0 := time.Now()
		status, reply, err := c.roundTrip(op, payload)
		t1 := time.Now()
		if err != nil {
			return r, fmt.Errorf("%s round trip: %w", name, err)
		}
		if status != serve.StatusOK {
			r.failed++
			chk.failed.Add(1)
			continue
		}
		var svc uint64
		var ok bool
		if op == serve.OpBatch {
			svc, ok = checkBatch(chk, in, k, reply)
			r.rows += in.batchRows
		} else {
			svc, ok = checkClassify(chk, in, k, reply)
			r.rows++
		}
		if !ok {
			continue
		}
		r.observe(chk, t1.Sub(t0), t1.Sub(t0), svc)
		if tr != nil {
			id := tr.id()
			buf.record(name, t0, t1, id, phaseID, id)
			buf.addService("serve.service", t0, t1, svc, id, id)
		}
	}
	return r, nil
}

// openLoop sends single-row Classify requests at a fixed rate over one
// pipelined connection for dur: request i is due at start + i/rate.
// One goroutine writes and this one reads. The writer sleeps until the
// next due time, and because a sleep wakes late it then writes every
// request already due, so the schedule never drifts; each request is
// timed from its due time, and the writer's lateness is reported.
func openLoop(addr string, in *inputs, rate int, dur time.Duration, tr *tracer, phaseID uint64, chk *checker) (phaseResult, error) {
	var r phaseResult
	n := int(float64(rate) * dur.Seconds())
	due := make([]int64, n)
	for i := range due {
		due[i] = int64(i) * int64(time.Second) / int64(rate)
	}
	sent := make([]atomic.Int64, n)
	c, err := dial(addr)
	if err != nil {
		return r, err
	}
	defer c.close()
	start := time.Now()
	if err := c.c.SetDeadline(start.Add(dur + 10*time.Second)); err != nil {
		return r, err
	}
	werr := make(chan error, 1)
	go func() {
		werr <- openWriter(c, in, due, sent, start)
	}()
	buf := tr.buf()
	defer buf.flush()
	for k := 0; k < n; k++ {
		status, reply, err := serve.ReadFrame(c.r)
		recv := time.Now()
		if err != nil {
			c.close() // unblocks the writer
			<-werr
			return r, fmt.Errorf("open-loop read: %w", err)
		}
		r.attempted++
		if status != serve.StatusOK {
			r.failed++
			chk.failed.Add(1)
			continue
		}
		row := k % len(in.rowPay)
		svc, ok := checkClassify(chk, in, row, reply)
		r.rows++
		if !ok {
			continue
		}
		dueAt := start.Add(time.Duration(due[k]))
		sentAt := start.Add(time.Duration(sent[k].Load()))
		r.observe(chk, recv.Sub(dueAt), recv.Sub(sentAt), svc)
		if tr != nil {
			id := tr.id()
			buf.record("client.classify_open", dueAt, recv, id, phaseID, id)
			buf.add("gen.late", dueAt, sentAt, id, id)
			buf.addService("serve.service", sentAt, recv, svc, id, id)
		}
	}
	r.elapsed = time.Since(start)
	if err := <-werr; err != nil {
		return r, fmt.Errorf("open-loop write: %w", err)
	}
	sentNs := make([]int64, n)
	for i := range sent {
		sentNs[i] = sent[i].Load()
	}
	mean, max, err := lateness(due, sentNs)
	if err != nil {
		return r, err
	}
	r.lateMean, r.lateMax = mean/1e3, max/1e3
	return r, nil
}

// openWriter is the open loop's sending side. Each wake takes one
// clock reading, stamps every request due by then with it, and writes
// them in one flush.
func openWriter(c *conn, in *inputs, due []int64, sent []atomic.Int64, start time.Time) error {
	for i := 0; i < len(due); {
		now := time.Since(start).Nanoseconds()
		if due[i] > now {
			time.Sleep(time.Duration(due[i] - now))
			continue
		}
		for ; i < len(due) && due[i] <= now; i++ {
			sent[i].Store(now)
			if err := serve.WriteFrame(c.w, serve.OpClassify, in.rowPay[i%len(in.rowPay)]); err != nil {
				return err
			}
		}
		if err := c.w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// hopProbe alternates single-row Classify round trips straight to the
// backend and through the router, and returns the difference of their
// medians in µs: the router hop as a client sees it.
func hopProbe(direct, routed string, in *inputs, pairs int, tr *tracer, chk *checker) (float64, int, error) {
	dc, err := dial(direct)
	if err != nil {
		return 0, 0, err
	}
	defer dc.close()
	rc, err := dial(routed)
	if err != nil {
		return 0, 0, err
	}
	defer rc.close()
	deadline := time.Now().Add(time.Minute)
	if err := dc.c.SetDeadline(deadline); err != nil {
		return 0, 0, err
	}
	if err := rc.c.SetDeadline(deadline); err != nil {
		return 0, 0, err
	}
	buf := tr.buf()
	defer buf.flush()
	var d, r []float64
	attempted := 0
	for i := 0; i < 2*pairs; i++ {
		c, name, into := dc, "client.probe_direct", &d
		if i%2 == 1 {
			c, name, into = rc, "client.probe_routed", &r
		}
		k := (i / 2) % len(in.rowPay)
		attempted++
		t0 := time.Now()
		status, reply, err := c.roundTrip(serve.OpClassify, in.rowPay[k])
		t1 := time.Now()
		if err != nil {
			return 0, attempted, fmt.Errorf("%s: %w", name, err)
		}
		if status != serve.StatusOK {
			chk.failed.Add(1)
			continue
		}
		svc, ok := checkClassify(chk, in, k, reply)
		if !ok {
			continue
		}
		if svc > uint64(t1.Sub(t0).Nanoseconds()) {
			chk.fail("serviceNs %d exceeds its round trip %d ns", svc, t1.Sub(t0).Nanoseconds())
		}
		*into = append(*into, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if tr != nil {
			id := tr.id()
			buf.record(name, t0, t1, id, 0, id)
			buf.addService("serve.service", t0, t1, svc, id, id)
		}
	}
	return median(r) - median(d), attempted, nil
}
