// Command nativeload generates the capture workload's input: a
// stdlib-only leaky worker pool run under runtime/trace.
//
// A producer submits a fixed number of jobs, each carrying its own
// reply channel, to a pool of four workers. Every worker answers a job
// from a fresh sender goroutine. The producer waits for every reply
// except one per 200 jobs, which it abandons (the classic "caller timed
// out" leak), so exactly jobs/200 senders strand on their reply send.
// Submission is paced so the capture lasts longer than -window, which
// makes it span more than one runtime/trace generation.
//
// Record the checked-in fixture with:
//
//	go run ./nativeload -out /tmp/nativeload.trace
//	gzip -9 -n -c /tmp/nativeload.trace > testdata/nativeload.trace.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/trace"
	"sync"
	"time"
)

// The capture workload pins its strand counts to these: one per
// leakEvery jobs.
const (
	leakEvery = 200
	workers   = 4
)

type job struct {
	n     int
	reply chan int
}

func worker(jobs <-chan job, wg *sync.WaitGroup) {
	defer wg.Done()
	for j := range jobs {
		j := j
		go func() {
			j.reply <- j.n * j.n // strands when the producer abandoned the job
		}()
	}
}

func run(jobsN int, window time.Duration) {
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go worker(jobs, &wg)
	}
	// Pace submission in small steps: one sleep per batch spreads the
	// jobs over the window instead of finishing in a few milliseconds.
	const batches = 500
	perBatch := (jobsN + batches - 1) / batches
	step := window / batches
	for i := 0; i < jobsN; i++ {
		reply := make(chan int)
		jobs <- job{n: i, reply: reply}
		if i%leakEvery != leakEvery-1 {
			<-reply
		}
		if i%perBatch == perBatch-1 {
			time.Sleep(step)
		}
	}
	close(jobs)
	wg.Wait()
}

func main() {
	out := flag.String("out", "", "write the execution trace to `file` (required)")
	jobsN := flag.Int("jobs", 50000, "jobs to submit")
	window := flag.Duration("window", 1500*time.Millisecond, "pacing window")
	flag.Parse()
	if *out == "" || *jobsN <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := trace.Start(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	run(*jobsN, *window)
	// Let the last abandoned senders park before the window closes.
	time.Sleep(50 * time.Millisecond)
	trace.Stop()
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%d jobs, %d stranded senders\n", *jobsN, *jobsN/leakEvery)
}
