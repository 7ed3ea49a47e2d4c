package main

import "time"

// The sandbox's host stalls the VM for tenths of a second now and then. A
// metric reported as the median over several equal stretches (windows) of
// its phase ignores a stall that a whole-phase average would carry.
const (
	rateWindows = 6 // closed loop, 30% of the run: windows of 0.6 s
	cpuWindows  = 8 // open loop, 70% of the run: windows of 1 s — /proc counts CPU time in 10 ms ticks, so none shorter
)

// windowedRate is the closed loop's throughput: the median, over the
// windows of the phase's nominal duration, of completions per second. A
// window's rate is its completions over the time from the last completion
// before it to its own last one, so the rate is not quantised to whole
// requests per window width.
func windowedRate(p *phase, d time.Duration) float64 {
	width := d / rateWindows
	counts := make([]int, rateWindows)
	last := make([]time.Time, rateWindows)
	for _, ob := range p.Obs {
		if w := int(ob.Done.Sub(p.Start) / width); w >= 0 && w < rateWindows {
			counts[w]++
			if ob.Done.After(last[w]) {
				last[w] = ob.Done
			}
		}
	}
	var rates []float64
	edge := p.Start
	for w := range counts {
		if counts[w] > 0 {
			rates = append(rates, float64(counts[w])/last[w].Sub(edge).Seconds())
			edge = last[w]
		}
	}
	return median(rates)
}

// cpuSample is serverd's cumulative CPU time at one instant.
type cpuSample struct {
	At time.Time
	MS float64
}

// cpuSampler reads serverd's CPU time at a fixed cadence while a phase
// runs.
type cpuSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []cpuSample
	err     error
}

func startCPUSampler(srv *serverProc, every time.Duration) *cpuSampler {
	s := &cpuSampler{quit: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		ms, err := srv.cpuMillis()
		if err != nil {
			s.err = err
			return
		}
		s.samples = append(s.samples, cpuSample{time.Now(), ms})
	}
	read()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-s.quit:
				read()
				return
			}
		}
	}()
	return s
}

// stop ends the sampling and returns the samples, the last one taken now.
func (s *cpuSampler) stop() ([]cpuSample, error) {
	close(s.quit)
	<-s.done
	return s.samples, s.err
}

// windowedCPUPerOp is serverd's CPU time per completed request: the
// median, over the windows between consecutive samples, of CPU time spent
// over requests completed.
func windowedCPUPerOp(samples []cpuSample, done []obs) float64 {
	var per []float64
	for i := 1; i < len(samples); i++ {
		ops := 0
		for _, ob := range done {
			if !ob.Done.Before(samples[i-1].At) && ob.Done.Before(samples[i].At) {
				ops++
			}
		}
		// The last window is the remainder after the final tick: too short
		// to weigh like the others unless it is most of a window.
		if ops > 0 && samples[i].At.Sub(samples[i-1].At) > samples[1].At.Sub(samples[0].At)/2 {
			per = append(per, (samples[i].MS-samples[i-1].MS)/float64(ops))
		}
	}
	return median(per)
}
