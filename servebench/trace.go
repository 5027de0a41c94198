package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own code:
// around a client call, an in-process kernel call, or a whole phase.
// Times are nanoseconds since the tracer started. Parent 0 marks a
// root; spans of one request share Req.
type span struct {
	Name   string
	Start  int64
	End    int64
	ID     uint64
	Parent uint64
	Req    uint64
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so timed loops call it
// unconditionally and pay one nil check.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ns converts a wall-clock instant into tracer time.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// id allocates a span id (0 when untraced).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// spanBuf collects one goroutine's spans without locking; flush hands
// them to the tracer.
type spanBuf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buf() *spanBuf { return &spanBuf{t: t} }

// record appends a span under a caller-chosen id, so a client call
// can name itself as its request before its children are recorded.
func (b *spanBuf) record(name string, start, end time.Time, id, parent, req uint64) {
	if b.t == nil {
		return
	}
	b.spans = append(b.spans, span{Name: name, Start: b.t.ns(start), End: b.t.ns(end), ID: id, Parent: parent, Req: req})
}

// add records a span with a fresh id and returns that id.
func (b *spanBuf) add(name string, start, end time.Time, parent, req uint64) uint64 {
	id := b.t.id()
	b.record(name, start, end, id, parent, req)
	return id
}

// addService records the server's own receipt-to-output time as a
// child of the client call that carried it. The server reports only a
// duration, so the child is centred in its parent: the parent's self
// time is then exactly the transport share, round trip minus service.
func (b *spanBuf) addService(name string, start, end time.Time, serviceNs uint64, parent, req uint64) {
	if b.t == nil {
		return
	}
	rtt := end.Sub(start).Nanoseconds()
	svc := int64(serviceNs)
	if svc > rtt {
		svc = rtt
	}
	s := b.t.ns(start) + (rtt-svc)/2
	b.spans = append(b.spans, span{Name: name, Start: s, End: s + svc, ID: b.t.id(), Parent: parent, Req: req})
}

func (b *spanBuf) flush() {
	if b.t == nil || len(b.spans) == 0 {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// selfRow is one line of the self-time table: every span of one name.
type selfRow struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes reduces spans to per-name totals, where a span's self time
// is its duration minus the part of it that its children cover (the
// union of the children's intervals, clipped to the parent).
func selfTimes(spans []span) []selfRow {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalNs += d
		r.SelfNs += d - covered(s.Start, s.End, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSelfTable renders the self-time table, grouped by layer (the
// span name up to its first dot).
func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-8s %-26s %9s %12s %12s %10s\n", "layer", "span", "count", "total_ms", "self_ms", "self_us/op")
	for _, r := range rows {
		layer, _, _ := strings.Cut(r.Name, ".")
		perOp := 0.0
		if r.Count > 0 {
			perOp = float64(r.SelfNs) / float64(r.Count) / 1e3
		}
		fmt.Fprintf(w, "%-8s %-26s %9d %12.3f %12.3f %10.3f\n", layer, r.Name, r.Count,
			float64(r.TotalNs)/1e6, float64(r.SelfNs)/1e6, perOp)
	}
}

// writeTrace writes every span, one tab-separated line each, and the
// self-time table next to it.
func (t *tracer) writeTrace(spanPath, tablePath string) ([]selfRow, error) {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	f, err := os.Create(spanPath)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tid\tparent\treq")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", s.Name, s.Start, s.End, s.ID, s.Parent, s.Req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rows := selfTimes(spans)
	var sb strings.Builder
	writeSelfTable(&sb, rows)
	if err := os.WriteFile(tablePath, []byte(sb.String()), 0o644); err != nil {
		return nil, err
	}
	return rows, nil
}
