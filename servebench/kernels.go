package main

import (
	"bytes"
	"fmt"
	"time"

	"bolt"
	"bolt/internal/bitpack"
	"bolt/internal/core"
)

// kernelReps is how many timed passes each in-process measurement
// makes; the median pass is reported.
const kernelReps = 7

// timePasses runs pass kernelReps times, each under one span named
// name, and returns the median pass duration in ns.
func timePasses(tr *tracer, name string, pass func(buf *spanBuf, parent uint64)) float64 {
	buf := tr.buf()
	defer buf.flush()
	ds := make([]float64, 0, kernelReps)
	for rep := 0; rep < kernelReps; rep++ {
		id := tr.id()
		t0 := time.Now()
		pass(buf, id)
		t1 := time.Now()
		buf.record(name, t0, t1, id, 0, id)
		ds = append(ds, float64(t1.Sub(t0).Nanoseconds()))
	}
	return median(ds)
}

// kernelLayers times the public functions of each layer on one
// goroutine, on the run's own inputs and compiled forest, and checks
// every label a kernel returns against the uncompiled forest's. Calls
// of a few microseconds (binarize, transpose, row Predict) are spanned
// per pass rather than per call, because two clock reads would be a
// visible share of such a call; the batch kernels are spanned per call.
func kernelLayers(w workload, fst *bolt.Forest, bf *bolt.CompiledForest, artifact []byte, in *inputs, tr *tracer, chk *checker) ([]metric, error) {
	X := in.X
	n := len(X)
	var ms []metric
	add := func(name, unit string, v float64) { ms = append(ms, metric{name, unit, v}) }

	// paths: predicate evaluation into the input bitset.
	bits := bitpack.New(bf.Codebook.Len())
	ns := timePasses(tr, "kernel.binarize", func(*spanBuf, uint64) {
		for _, x := range X {
			bf.Codebook.Evaluate(x, bits)
		}
	})
	add("binarize_ns_per_row", "ns", ns/float64(n))

	// bitpack: one 64-row block at the forest's word count, filled with
	// the first 64 rows' real predicate bits.
	words := (bf.Codebook.Len() + 63) / 64
	rows := make([]uint64, 64*words)
	cols := make([]uint64, 64*words)
	for i := 0; i < 64; i++ {
		bf.Codebook.Evaluate(X[i%n], bits)
		copy(rows[i*words:], bits.Words())
	}
	const blocks = 4096
	ns = timePasses(tr, "kernel.transpose", func(*spanBuf, uint64) {
		for b := 0; b < blocks; b++ {
			bitpack.TransposeBlock(rows, cols, words)
		}
	})
	add("transpose_ns_per_block", "ns", ns/blocks)

	// core, compile: the two halves of the pipeline, the decoder, and
	// the size of the result.
	opts := serveOptions(w)
	var comp *core.Compilation
	ns = timePasses(tr, "compile.paths", func(*spanBuf, uint64) {
		var err error
		if comp, err = core.NewCompilation(fst); err != nil {
			chk.fail("NewCompilation: %v", err)
		}
	})
	add("compile_paths_ms", "ms", ns/1e6)
	if comp == nil {
		return nil, fmt.Errorf("compilation of the %s forest failed", w.name)
	}
	ns = timePasses(tr, "compile.build", func(*spanBuf, uint64) {
		if _, err := comp.Compile(opts); err != nil {
			chk.fail("Compile: %v", err)
		}
	})
	add("compile_build_ms", "ms", ns/1e6)
	ns = timePasses(tr, "compile.decode", func(*spanBuf, uint64) {
		if _, err := bolt.DecodeCompiledForest(bytes.NewReader(artifact)); err != nil {
			chk.fail("DecodeCompiledForest: %v", err)
		}
	})
	add("decode_ms", "ms", ns/1e6)
	add("artifact_bytes", "bytes", float64(len(artifact)))
	fp := bf.Footprint()
	add("model_flat_bytes", "bytes", float64(fp.FlatBytes()))
	add("model_compact_bytes", "bytes", float64(fp.CompactBytes()))

	// core, kernels.
	p := bolt.NewPredictor(bf)
	got := make([]int, n)
	// verify checks the first rows labels a kernel wrote.
	verify := func(kernel string, rows int) {
		for i, l := range got[:rows] {
			if l != in.want[i] {
				chk.fail("%s row %d: label %d, forest says %d", kernel, i, l, in.want[i])
				return
			}
		}
	}
	ns = timePasses(tr, "kernel.row", func(*spanBuf, uint64) {
		for i, x := range X {
			got[i] = p.Predict(x)
		}
	})
	verify("Predict", n)
	add("kernel_row_ns", "ns", ns/float64(n))

	// batched times run over consecutive size-row windows of the first
	// rows rows, spanning each call, and checks every label it wrote.
	batched := func(span string, size, rows int, run func(X [][]float32, out []int)) float64 {
		rows = rows / size * size
		ns := timePasses(tr, span, func(buf *spanBuf, parent uint64) {
			for lo := 0; lo < rows; lo += size {
				t0 := time.Now()
				run(X[lo:lo+size], got[lo:lo+size])
				if tr != nil {
					buf.add(span+"_call", t0, time.Now(), parent, parent)
				}
			}
		})
		verify(span, rows)
		return ns / float64(rows)
	}
	one := func(X [][]float32, out []int) { p.PredictBatchInto(X, out) }
	// A 1-row batch costs a whole 64-row block, so a quarter of the
	// rows keeps that pass as long as the others.
	add("kernel_batch1_ns_per_row", "ns", batched("kernel.batch1", 1, n/4, one))
	add("kernel_batch8_ns_per_row", "ns", batched("kernel.batch8", 8, n, one))
	add("kernel_batch256_ns_per_row", "ns", batched("kernel.batch256", 256, n, one))

	pp := bolt.NewParallelPredictor(bf, 2)
	defer pp.Close()
	add("kernel_parallel256_ns_per_row", "ns", batched("kernel.parallel256", 256, n, pp.PredictBatchParallelInto))

	var ts bolt.TierStats
	add("kernel_tiered256_ns_per_row", "ns", batched("kernel.tiered256", 256, n, func(X [][]float32, out []int) {
		p.PredictBatchTieredInto(X, out, &ts)
	}))
	share := 0.0
	if bf.Tiered() && ts.Total() > 0 {
		share = float64(ts.Tier0Answered) / float64(ts.Total())
	}
	add("tier0_answered_share", "fraction", share)
	return ms, nil
}
