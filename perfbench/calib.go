package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// Host-speed calibration.
//
// The development VM's speed drifts: over a five-minute run of kvs-pooled
// the CPU seconds of identical iterations ranged from 0.93 to 1.69, in
// phases tens of seconds to minutes long, so a median over a 20 to 60 s run
// still spread by about 0.23 of its median between runs. The drift comes
// from the shared host (CPU frequency, last-level cache and memory traffic
// of neighbours), not from the program, so the benchmark measures it: a
// fixed loop of the benchmark's own, independent of the program, is timed
// between iterations, and each iteration's host times are divided by how
// much slower than calibRefSeconds that loop ran around it. A change to the
// program moves the normalized times exactly as it moves the raw ones; the
// raw times are printed alongside.

// calibRefSeconds is the calibration loop's CPU time on the reference host
// (about the median on a 2-vCPU Xeon, model 143, VM): normalized times are CPU
// seconds at that speed.
const calibRefSeconds = 0.11

// calibWords sizes the loop's random read-modify-write array: 32 MiB, past
// the private caches and within the shared last-level cache, where the
// simulator's own tag arrays and queues live.
const calibWords = 4 << 20

// calibBufs holds one array per calibrating thread.
var calibBufs [][]uint64

// calibrate runs the calibration loop once on each of threads locked
// threads at the same time, as many as the workload keeps busy, and returns
// their mean CPU seconds over calibRefSeconds: 1 on the reference host with
// one thread, 1.2 when the host runs 20% slower. Thread CPU time keeps
// garbage-collector workers finishing an iteration's work out of it. The
// arrays are mapped outside the Go heap, so they show in no heap metric.
func calibrate(threads int) float64 {
	for len(calibBufs) < threads {
		mem, err := syscall.Mmap(-1, 0, calibWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("perfbench: calibration array: " + err.Error())
		}
		buf := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), calibWords)
		calibLoop(buf) // fault the pages in
		calibBufs = append(calibBufs, buf)
	}
	secs := make([]float64, threads)
	var wg sync.WaitGroup
	for i := range secs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPU()
			calibLoop(calibBufs[i])
			secs[i] = threadCPU() - t0
		}()
	}
	wg.Wait()
	var sum float64
	for _, s := range secs {
		sum += s
	}
	return sum / float64(threads) / calibRefSeconds
}

// calibSink keeps the loops' results observable.
var calibSink atomic.Uint64

// calibLoop is a random read-modify-write walk over buf followed by a
// dependent xorshift chain: one half bound by the shared cache and memory,
// the other by the core's clock. Either alone tracked the drift less well.
func calibLoop(buf []uint64) {
	x := uint64(88172645463325252)
	var s uint64
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calibWords - 1)
		v := buf[j] + x
		if v&3 == 0 {
			s += v
		}
		buf[j] = v
	}
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			s += x
		}
	}
	calibSink.Add(s)
}

// threadCPU returns user plus system CPU seconds of the calling thread.
func threadCPU() float64 {
	const rusageThread = 1 // RUSAGE_THREAD
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}
