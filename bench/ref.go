package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"weaksets/internal/metrics"
)

// The benchmark runs on a few cores of a shared host whose speed drifts
// by a third over minutes: the same binary on the same seed reads 17 ms
// per run in one quarter of an hour and 27 ms in the next, with the guest
// reporting no steal. What slows is what the stack is made of — heap
// allocation and small socket round trips between threads — while a pure
// register loop keeps its pace. So the benchmark carries a yardstick: a
// fixed kernel of exactly that work, owned by bench/ and touching no
// repository code, timed between runs all through every pass. Every
// timing of a run is divided by the yardstick's cost around the instant
// it was taken and multiplied by refNominal, the yardstick's cost on a
// quiet host: the figures read as milliseconds on that quiet host, and a
// slow spell of the machine cancels instead of counting as a regression.
// bench.host_factor reports the correction applied and
// bench.wall_run_ms_p50 the uncorrected median. Set-up time and the
// writer's latencies stay as the clock read them: samples taken back to
// back around a set-up wander more than the set-up does, and a write's
// latency from its due instant is largely the timer's wake-up, which the
// host's weather stretches far less than it does the kernel.
const (
	// refNominal is the kernel's cost on the sizing machine when quiet.
	// It only fixes the unit; changing it rescales every timing alike.
	refNominal = 600 * time.Microsecond
	// refEvery is how often a pass stops between two runs to take a
	// sample; at ~0.6 ms each that is well under 1 % of the window.
	refEvery = 100 * time.Millisecond
	// refNeighbours on each side of the sample nearest an instant make
	// the local yardstick: a median of 11 samples, about a second.
	refNeighbours = 5

	refAllocs = 2000 // 256 B objects allocated, filled and put in a map
	refTrips  = 40   // 64 B round trips over a loopback TCP connection
)

// refSample is one timing of the kernel.
type refSample struct {
	at   time.Time
	cost time.Duration
}

// hostRef owns the kernel's loopback connection and its echoing peer. It
// keeps nothing else alive: a few megabytes more of live heap shift the
// collector's cycles against the runs enough to move a workload's tail.
type hostRef struct {
	conn   net.Conn
	echoed chan struct{} // closed when the echo goroutine has ended
	src    []byte
	msg    [64]byte
	sink   int
	err    error // the first failed round trip; sticky
	// What one sample allocates, measured once while nothing else runs, so
	// that a pass can take the kernel out of its allocation counts.
	mallocs, allocBytes uint64
}

func newHostRef() (*hostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	h := &hostRef{echoed: make(chan struct{}), src: payloadFor(0, "ref")}
	go func() {
		defer close(h.echoed)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var msg [64]byte
		for {
			if _, err := io.ReadFull(peer, msg[:]); err != nil {
				return
			}
			if _, err := peer.Write(msg[:]); err != nil {
				return
			}
		}
	}()
	if h.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close() // unblocks Accept
		<-h.echoed
		return nil, err
	}
	const n = 16
	var a, b runtime.MemStats
	h.sample() // first use sizes the socket buffers
	runtime.ReadMemStats(&a)
	for range n {
		h.sample()
	}
	runtime.ReadMemStats(&b)
	h.mallocs = (b.Mallocs - a.Mallocs) / n
	h.allocBytes = (b.TotalAlloc - a.TotalAlloc) / n
	return h, nil
}

// close ends the echo goroutine and waits for it.
func (h *hostRef) close() {
	h.conn.Close()
	<-h.echoed
}

// sample runs the kernel once: the allocation half, then the round-trip
// half, timed as one.
func (h *hostRef) sample() refSample {
	t0 := time.Now()
	m := make(map[int][]byte, refAllocs)
	for i := range refAllocs {
		b := make([]byte, payloadBytes)
		copy(b, h.src)
		m[i] = b
	}
	h.sink += len(m)
	for range refTrips {
		if _, err := h.conn.Write(h.msg[:]); err != nil && h.err == nil {
			h.err = fmt.Errorf("host reference: %w", err)
		}
		if _, err := io.ReadFull(h.conn, h.msg[:]); err != nil && h.err == nil {
			h.err = fmt.Errorf("host reference: %w", err)
		}
	}
	return refSample{at: t0, cost: time.Since(t0)}
}

// refScale is the factor that turns a wall-clock duration taken while the
// kernel cost what these samples say into quiet-host time.
func refScale(samples []refSample) float64 {
	costs := make([]time.Duration, len(samples))
	for i, s := range samples {
		costs[i] = s.cost
	}
	if med := metrics.QuantileOf(costs, 0.5); med > 0 {
		return float64(refNominal) / float64(med)
	}
	return 1
}

// refScaleAt is refScale over the samples nearest t; samples are in time
// order.
func refScaleAt(samples []refSample, t time.Time) float64 {
	j := sort.Search(len(samples), func(i int) bool { return samples[i].at.After(t) })
	return refScale(samples[max(0, j-1-refNeighbours):min(len(samples), j+refNeighbours)])
}

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}
