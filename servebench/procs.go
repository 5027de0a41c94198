package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"bolt/internal/serve"
)

// proc is one serving process the benchmark started. Its output goes
// to a log file in the run directory, shown when start-up fails.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  string
	done chan struct{}
	err  error
}

// startProc launches bin with args, logging to dir/name.log.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		lf.Close()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to drain and exit, and kills it if it has not
// ended within the grace period. It returns once the process is gone.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exiting if this fails; the wait below settles it
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// logTail returns the end of the process's log, for error messages.
func (p *proc) logTail() string {
	b, err := os.ReadFile(p.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuTicks is a process's user plus system CPU time in clock ticks.
func cpuTicks(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	u, s, err := parseProcStatCPU(string(b))
	return u + s, err
}

// hostSteal is the machine's stolen and total CPU ticks so far.
func hostSteal() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostStat(string(b))
}

// peakRSSKB is a process's peak resident set (VmHWM) in KiB.
func peakRSSKB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// conn is a raw protocol connection: frames go out through
// serve.WriteFrame and come back through serve.ReadFrame, so request
// payloads can be encoded once, before any timing starts.
type conn struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("unix", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

func (c *conn) close() { c.c.Close() }

// call is one round trip under its own deadline, for requests outside
// the timed loops.
func (c *conn) call(op byte, payload []byte) (byte, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return 0, nil, err
	}
	return c.roundTrip(op, payload)
}

// roundTrip writes one frame and reads its reply; the timed loops set
// the connection's deadline once per segment instead.
func (c *conn) roundTrip(op byte, payload []byte) (byte, []byte, error) {
	if err := serve.WriteFrame(c.w, op, payload); err != nil {
		return 0, nil, err
	}
	if err := c.w.Flush(); err != nil {
		return 0, nil, err
	}
	return serve.ReadFrame(c.r)
}

// stats fetches a ServerStats snapshot.
func (c *conn) stats() (serve.ServerStats, error) {
	status, payload, err := c.call(serve.OpStats, nil)
	if err != nil {
		return serve.ServerStats{}, err
	}
	if status != serve.StatusOK {
		return serve.ServerStats{}, fmt.Errorf("stats: status %d: %s", status, payload)
	}
	return serve.DecodeStats(payload)
}

// health fetches a Health snapshot.
func (c *conn) health() (serve.Health, error) {
	status, payload, err := c.call(serve.OpHealth, nil)
	if err != nil {
		return serve.Health{}, err
	}
	if status != serve.StatusOK {
		return serve.Health{}, fmt.Errorf("health: status %d", status)
	}
	return serve.DecodeHealth(payload)
}

// classifyOnce dials addr and sends one Classify; it succeeds only on
// an answered request.
func classifyOnce(addr string, payload []byte) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	status, _, err := c.call(serve.OpClassify, payload)
	if err != nil {
		return err
	}
	if status != serve.StatusOK {
		return fmt.Errorf("classify: status %d", status)
	}
	return nil
}

// waitUntil polls try about every half millisecond until it succeeds,
// a process in ps exits, or the deadline passes.
func waitUntil(deadline time.Time, ps []*proc, try func() error) error {
	for {
		err := try()
		if err == nil {
			return nil
		}
		for _, p := range ps {
			if p.exited() {
				return fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.err, p.logTail())
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready before the deadline: %w", err)
		}
		time.Sleep(500 * time.Microsecond)
	}
}
