package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The host this benchmark runs on shares its cores with other tenants,
// and its speed drifts by up to a quarter over minutes. The drift moves
// the simulator and other cache- and branch-heavy code together. So a
// process samples a fixed reference kernel around everything it times,
// and scales its wall times by refKernelNs over the kernel's median
// time. The kernel is the benchmark's own code: a change to the
// simulator moves the scaled times one for one.

// refKernelNs is the reference kernel's typical time on the 2-core Xeon
// host the benchmark was defined on; scaled times read as wall times on
// that host.
const refKernelNs = 50e6

// refIters is the reference kernel's length.
const refIters = 1_000_000

var (
	refTags = make([]uint64, 4096*8) // 8-way, 4096-set tag array: 256 KiB
	refAges = make([]uint8, 4096*8)
	refSink uint64
)

// refKernel runs an 8-way LRU set-associative cache lookup over a skewed
// splitmix64 address stream — the kind of work the simulator's hot path
// does — and returns its wall time in ns.
func refKernel() float64 {
	start := time.Now()
	x := uint64(7)
	var hits uint64
	for i := 0; i < refIters; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		line := (z & 0xfffff) >> (z >> 60) // skewed towards low lines
		set := int(line&4095) * 8
		way := -1
		for w := 0; w < 8; w++ {
			if refTags[set+w] == line {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w := 1; w < 8; w++ {
				if refAges[set+w] > refAges[set+way] {
					way = w
				}
			}
			refTags[set+way] = line
		}
		for w := 0; w < 8; w++ {
			if refAges[set+w] < 255 {
				refAges[set+w]++
			}
		}
		refAges[set+way] = 0
	}
	refSink += hits
	return float64(time.Since(start).Nanoseconds())
}

// refClock collects the reference-kernel samples of one process.
type refClock struct {
	samples []float64
}

// sample runs the reference kernel once and records its time.
func (c *refClock) sample() { c.samples = append(c.samples, refKernel()) }

// around samples the kernel before and after timed, which returns the
// wall time of the section it measures, and returns that wall time in ns.
func (c *refClock) around(timed func() time.Duration) float64 {
	c.sample()
	ns := float64(timed().Nanoseconds())
	c.sample()
	return ns
}

// scale converts wall ns measured in this process to ns on the reference
// host: refKernelNs over the median kernel sample.
func (c *refClock) scale() float64 {
	return refKernelNs / median(append([]float64(nil), c.samples...))
}

// rssMB returns the process's resident set in MiB, or 0 where
// /proc/self/statm is unavailable.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPollEvery is how often peakRSSDuring samples the resident set: a run
// allocates well under a MiB in that time.
const rssPollEvery = 2 * time.Millisecond

// peakRSSDuring runs fn while a goroutine samples the resident set, and
// returns the largest sample. The sampler has exited when it returns.
func peakRSSDuring(fn func()) float64 {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		max := rssMB()
		tick := time.NewTicker(rssPollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				if r := rssMB(); r > max {
					max = r
				}
				peak <- max
				return
			case <-tick.C:
				if r := rssMB(); r > max {
					max = r
				}
			}
		}
	}()
	fn()
	close(stop)
	return <-peak
}
