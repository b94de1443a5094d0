package main

import (
	"sync"
	"syscall"
	"time"
)

// cpuSample is the serving process's CPU time (user plus system) at a
// wall-clock instant, both in Unix nanoseconds.
type cpuSample struct{ wall, cpu int64 }

// cpuSampler records the serving process's CPU time every cpuEvery
// until stopped, so the CPU a stretch of the load cost can be read off
// afterwards. CPU time, unlike wall time, does not grow while the host
// steals the CPU from the machine.
type cpuSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []cpuSample
}

const cpuEvery = 10 * time.Millisecond

func startCPUSampler() *cpuSampler {
	c := &cpuSampler{stop: make(chan struct{})}
	c.done.Add(1)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(cpuEvery)
		defer t.Stop()
		for {
			c.samples = append(c.samples, sampleCPU())
			select {
			case <-c.stop:
				c.samples = append(c.samples, sampleCPU())
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// Stop ends sampling and returns the samples.
func (c *cpuSampler) Stop() []cpuSample {
	close(c.stop)
	c.done.Wait()
	return c.samples
}

func sampleCPU() cpuSample {
	var ru syscall.Rusage
	// Getrusage on the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return cpuSample{wall: time.Now().UnixNano(), cpu: ru.Utime.Nano() + ru.Stime.Nano()}
}

// cpuBetween interpolates the CPU time spent between the wall-clock
// instants from and to.
func cpuBetween(samples []cpuSample, from, to int64) int64 {
	return cpuAt(samples, to) - cpuAt(samples, from)
}

func cpuAt(samples []cpuSample, wall int64) int64 {
	if len(samples) == 0 {
		return 0
	}
	if wall <= samples[0].wall {
		return samples[0].cpu
	}
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if wall <= b.wall {
			return a.cpu + (b.cpu-a.cpu)*(wall-a.wall)/max(1, b.wall-a.wall)
		}
	}
	return samples[len(samples)-1].cpu
}
