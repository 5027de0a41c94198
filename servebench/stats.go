package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs:
// the smallest sample with at least p·n samples at or below it. xs is
// sorted in place. An empty sample has no percentile and reads NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the middle of xs (the mean of the two middle samples for
// an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1, the median and Q3 of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so a spread printed here matches one computed by a script
// over the same values. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two samples")
	}
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// spreadShare is the interquartile distance of xs as a share of its
// median: the run-to-run noise a bound has to exceed.
func spreadShare(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// worseShare is how much worse b is than the reference a, as a share
// of a, for a metric whose better direction is "lower" or "higher";
// an improvement reads negative.
func worseShare(a, b float64, better string) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// agree reports whether two medians of one metric differ by no more
// than bound, as a share of the first, in either direction.
func agree(a, b, bound float64) bool {
	if a == 0 {
		return b == 0
	}
	return math.Abs(b-a) <= bound*math.Abs(a)
}

// lateness summarises an open-loop generator's own delay: for each
// request, how long after its due time it was actually written. The
// mean and the maximum are in the inputs' unit; a sent time before its
// due time is an accounting bug and is reported as an error.
func lateness(due, sent []int64) (mean, max float64, err error) {
	if len(due) != len(sent) {
		return 0, 0, fmt.Errorf("lateness: %d due times for %d sends", len(due), len(sent))
	}
	if len(due) == 0 {
		return 0, 0, nil
	}
	var sum float64
	for i := range due {
		d := sent[i] - due[i]
		if d < 0 {
			return 0, 0, fmt.Errorf("lateness: request %d sent %dns before it was due", i, -d)
		}
		sum += float64(d)
		if float64(d) > max {
			max = float64(d)
		}
	}
	return sum / float64(len(due)), max, nil
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat. It is 100 on every mainstream architecture.
const clockTicksPerSecond = 100

// parseProcStatCPU extracts user and system CPU time, in clock ticks,
// from the contents of /proc/<pid>/stat. The command name (field 2)
// may itself hold spaces and parentheses, so fields are counted from
// the last closing parenthesis.
func parseProcStatCPU(stat string) (utime, stime uint64, err error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, 0, errors.New("proc stat: no command name")
	}
	// After the name: state(3) ppid pgrp session tty_nr tpgid flags
	// minflt cminflt majflt cmajflt utime(14) stime(15) ...
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after the name, want at least 13", len(f))
	}
	if utime, err = strconv.ParseUint(f[11], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(f[12], 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseHostStat reads the aggregate "cpu" line of /proc/stat and returns
// the ticks the hypervisor stole from this machine's vCPUs (the eighth
// value, steal) and the sum of all its values, so steal/total is the
// share of the machine's CPU time taken by other guests.
func parseHostStat(stat string) (steal, total uint64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: first line %q is not the cpu line with a steal value", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat cpu value %d: %w", i+1, err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// parseStatusKB reads one "Key:   N kB" line, such as VmHWM, from the
// contents of /proc/<pid>/status.
func parseStatusKB(status, key string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed %q", key, line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
