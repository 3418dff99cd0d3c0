package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"memento/internal/store"
	"memento/internal/telemetry"
	"memento/internal/workload"
)

// Open-loop arrival rates of the daemon workloads, in fresh jobs per second;
// repeat jobs arrive at the same rate. On two cores the default daemon (two
// workers, a 16-job queue) refused jobs at 18/s, and from 10/s up its
// median latency swung by a third between runs as the host's speed drifted,
// since queueing amplifies every slowdown; 8/s keeps the queue visible and
// the median within the benchmark's bound.
const (
	lightRate = 6
	heavyRate = 8
)

// maxLagMs is the generator lateness (90th percentile) beyond which a
// daemon round is invalid: the client, not the daemon, set the schedule.
const maxLagMs = 5

// daemon is the service under load: a mementod process in a benchmark run,
// an in-process server in the smoke test.
type daemon interface {
	baseURL() string
	// usage returns the CPU time the server has used so far and its peak
	// RSS.
	usage() (cpu time.Duration, peakRSSMB float64, err error)
	// pprofURL is the server's profiling endpoint, or "" without one.
	pprofURL() string
	stop() error
}

// jobKey is a plain job: one (kind, workload, stack, cold_start,
// mmap_populate) combination.
type jobKey struct {
	Kind     string
	Workload string
	Stack    string
	Cold     bool
	Populate bool
}

func (k jobKey) spec() store.JobSpec {
	return store.JobSpec{Kind: k.Kind, Workload: k.Workload, Stack: k.Stack, ColdStart: k.Cold, MmapPopulate: k.Populate}
}

// cyclesKey names a run record in testdata/daemon_cycles.json.
func cyclesKey(workload, stack string, cold, populate bool) string {
	return fmt.Sprintf("%s/%s/cold=%t/populate=%t", workload, stack, cold, populate)
}

// jobKeys splits the plain keys of the given workloads into the warm-up
// set (one plain compare per workload) and the fresh set (all the others).
func jobKeys(names []string) (warm, fresh []jobKey) {
	for _, w := range names {
		for _, cold := range []bool{false, true} {
			for _, pop := range []bool{false, true} {
				c := jobKey{Kind: store.KindCompare, Workload: w, Cold: cold, Populate: pop}
				if !cold && !pop {
					warm = append(warm, c)
				} else {
					fresh = append(fresh, c)
				}
				for _, stack := range []string{"baseline", "memento"} {
					fresh = append(fresh, jobKey{Kind: store.KindRun, Workload: w, Stack: stack, Cold: cold, Populate: pop})
				}
			}
		}
	}
	return warm, fresh
}

// job is one submission of the load: its schedule, what the client saw,
// and the job's final state.
type job struct {
	key   jobKey
	fresh bool
	at    time.Duration // due time after the start of the timed phase
	due   time.Time
	sent  time.Time
	recv  time.Time
	code  int
	err   error
	view  store.JobView
	// getMs and getKB describe the final GET of a fresh job.
	getMs, getKB float64
}

// schedule draws one round's open-loop arrivals: ⌈rate×budget⌉ fresh jobs
// and as many repeat jobs, each due at a uniformly random time in the
// window (a Poisson process conditioned on its count). Round i's fresh jobs
// are the i-th slice of one fixed shuffle of the fresh set, whatever the
// seed: seeds vary when jobs arrive and in which order, not the mix of work,
// and the rounds of a run together cover a wide sample of it. Repeat jobs
// pick warm-up keys at random.
func schedule(rng *rand.Rand, rate float64, budget time.Duration, round int, warm, fresh []jobKey) []*job {
	n := min(int(math.Ceil(rate*budget.Seconds())), len(fresh))
	perm := rand.New(rand.NewSource(0)).Perm(len(fresh))
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(budget))) }
	var jobs []*job
	for i := 0; i < n; i++ {
		jobs = append(jobs, &job{key: fresh[perm[(round*n+i)%len(perm)]], fresh: true, at: at()})
	}
	for i := 0; i < n; i++ {
		jobs = append(jobs, &job{key: warm[rng.Intn(len(warm))], at: at()})
	}
	slices.SortStableFunc(jobs, func(a, b *job) int { return int(a.at - b.at) })
	return jobs
}

// runDaemon drives a fresh mementod with open-loop load. Set-up starts the
// daemon and submits the warm-up compares, whose results fill its trace,
// checkpoint and result caches; every repeat job is then a cache hit. The
// timed phase submits jobs at their due times without polling; afterwards
// each fresh job is read back once it has finished. A fresh job's sample
// runs from its due time to its finished_at.
func runDaemon(r *round, rate float64) error {
	var want map[string]uint64
	if err := loadJSON(daemonCyclesFile, &want); err != nil {
		return err
	}
	names := workload.Names()
	if r.toy {
		names = names[:2]
	}
	d, err := r.daemon(r.traced)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	c := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
		Timeout:   60 * time.Second,
	}
	l := &loadClient{r: r, c: c, base: d.baseURL(), want: want}

	warm, fresh := jobKeys(names)
	// Warm up in batches that fit the daemon's queue.
	for lo := 0; lo < len(warm); lo += 8 {
		var js []*job
		for _, k := range warm[lo:min(lo+8, len(warm))] {
			j := &job{key: k, fresh: true}
			l.submit(j)
			if j.err != nil || j.code != http.StatusCreated {
				return fmt.Errorf("warm-up %v: status %d: %v", k, j.code, j.err)
			}
			js = append(js, j)
		}
		for _, j := range js {
			if err := l.await(j); err != nil {
				return err
			}
			l.check(j)
		}
	}

	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(r.index)))
	jobs := schedule(rng, rate, r.budget, r.index, warm, fresh)
	var prof *profileFetch
	r.markSetupDone()
	// The reference is timed while the daemon is idle, before the load
	// and after it has drained, never competing with the jobs.
	ref0 := referenceMs()
	cpu0, _, err := d.usage()
	if err != nil {
		return err
	}
	var alloc0 uint64
	if r.traced && d.pprofURL() != "" {
		if alloc0, err = totalAlloc(c, d.pprofURL()); err != nil {
			return err
		}
		prof = fetchProfile(c, d.pprofURL(), r.budget, filepath.Join(r.dir, fmt.Sprintf("%s-round%d.pprof", r.name, r.index)))
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, j := range jobs {
		j.due = start.Add(j.at)
		time.Sleep(time.Until(j.due))
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			l.submit(j)
		}(j)
	}
	wg.Wait()

	var done int
	for _, j := range jobs {
		if j.fresh && j.err == nil && j.code == http.StatusCreated {
			if err := l.await(j); err != nil {
				return err
			}
			done++
		}
	}
	cpu1, rss, err := d.usage()
	if err != nil {
		return err
	}
	if prof != nil {
		if err := prof.wait(); err != nil {
			return err
		}
		r.res.Profile = prof.path
		alloc1, err := totalAlloc(c, d.pprofURL())
		if err != nil {
			return err
		}
		r.setLayer("runtime.alloc_kb_per_op", float64(alloc1-alloc0)/1024/float64(max(done, 1)))
	}
	r.res.PeakRSSMB = rss
	r.res.CPUMsPerOp = ms(cpu1-cpu0) / float64(max(done, 1))
	l.report(jobs)
	ref := (ref0 + referenceMs()) / 2
	for range r.res.OpMs {
		r.res.RefMs = append(r.res.RefMs, ref)
	}
	// The daemon drains and exits 0 on SIGTERM; anything else is a failure.
	err = d.stop()
	d = nil
	if err != nil {
		r.fail("daemon shutdown: %v", err)
	}
	return nil
}

// loadClient submits and reads back jobs and checks their results.
type loadClient struct {
	r    *round
	c    *http.Client
	base string
	want map[string]uint64
}

// submit POSTs the job's spec and records the response.
func (l *loadClient) submit(j *job) {
	body, err := json.Marshal(j.key.spec())
	if err != nil {
		j.err = err
		return
	}
	j.sent = time.Now()
	resp, err := l.c.Post(l.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	j.code = resp.StatusCode
	raw, err := io.ReadAll(resp.Body)
	j.recv = time.Now()
	if err != nil {
		j.err = err
		return
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		j.err = json.Unmarshal(raw, &j.view)
	}
	l.r.addSpan("api.submit", -1, j.view.ID, j.sent, j.recv)
}

// await reads the job until it is terminal, then keeps that final view.
func (l *loadClient) await(j *job) error {
	for {
		t := time.Now()
		resp, err := l.c.Get(l.base + "/v1/jobs/" + j.view.ID)
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", j.view.ID, resp.StatusCode)
		}
		if err := json.Unmarshal(raw, &j.view); err != nil {
			return err
		}
		switch j.view.Status {
		case store.StatusDone, store.StatusFailed, store.StatusCanceled:
			j.getMs, j.getKB = ms(time.Since(t)), float64(len(raw))/1024
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// check compares every run record of a finished job with the expected
// cycles; it reports whether the job is a success.
func (l *loadClient) check(j *job) bool {
	if j.view.Status != store.StatusDone {
		l.r.fail("job %s %v: %s %s", j.view.ID, j.key, j.view.Status, j.view.Error)
		return false
	}
	var res struct {
		Run      *telemetry.RunRecord `json:"run"`
		Baseline *telemetry.RunRecord `json:"baseline"`
		Memento  *telemetry.RunRecord `json:"memento"`
	}
	if err := json.Unmarshal(j.view.Result, &res); err != nil {
		l.r.fail("job %s: result: %v", j.view.ID, err)
		return false
	}
	var recs []*telemetry.RunRecord
	for _, rec := range []*telemetry.RunRecord{res.Run, res.Baseline, res.Memento} {
		if rec != nil {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		l.r.fail("job %s: result has no run records", j.view.ID)
		return false
	}
	ok := true
	for _, rec := range recs {
		key := cyclesKey(rec.Workload, rec.Stack, j.key.Cold, j.key.Populate)
		if want, known := l.want[key]; !known || rec.Cycles != want {
			l.r.fail("job %s %s: %d cycles, want %d", j.view.ID, key, rec.Cycles, want)
			ok = false
		}
	}
	return ok
}

// report checks every job and records the round's samples and counters.
func (l *loadClient) report(jobs []*job) {
	r := l.r
	r.attempt(len(jobs))
	var rejected, hits, accepted int
	var queue, exec, total, getKB float64
	for _, j := range jobs {
		lag := ms(j.sent.Sub(j.due))
		r.addSample("loadgen.lag_ms", lag)
		switch {
		case j.err != nil:
			r.fail("job %v: %v", j.key, j.err)
			continue
		case j.code == http.StatusTooManyRequests:
			rejected++
			r.fail("job %v: refused (429)", j.key)
			continue
		case j.code != http.StatusOK && j.code != http.StatusCreated:
			r.fail("job %v: status %d", j.key, j.code)
			continue
		}
		accepted++
		r.addSample("api.submit_ms", ms(j.recv.Sub(j.sent)))
		if !j.fresh {
			if !j.view.CacheHit {
				r.fail("repeat job %s %v was not served from the cache", j.view.ID, j.key)
				continue
			}
			hits++
			r.addSample("hit_ms", ms(j.recv.Sub(j.due)))
			l.check(j)
			continue
		}
		if !l.check(j) {
			continue
		}
		created, started, finished := j.view.CreatedAt, *j.view.StartedAt, *j.view.FinishedAt
		lat := ms(finished.Sub(j.due))
		r.res.OpMs = append(r.res.OpMs, lat)
		r.addSample("store.queue_ms", ms(started.Sub(created)))
		r.addSample("store.exec_ms", ms(finished.Sub(started)))
		r.addSample("api.get_ms", j.getMs)
		queue += ms(started.Sub(created))
		exec += ms(finished.Sub(started))
		total += lat
		getKB += j.getKB
		sub := r.addSpan("client.job", -1, j.view.ID, j.due, finished)
		r.addSpan("store.queue", sub, j.view.ID, created, started)
		r.addSpan("store.exec", sub, j.view.ID, started, finished)
	}
	// A toy round shares its process with the server, which may starve the
	// generator; only a real run is held to the schedule.
	if lag, _ := percentile(r.res.Samples["loadgen.lag_ms"], 0.9); lag > maxLagMs && !r.toy {
		r.fail("generator lag p90 %.2f ms exceeds %d ms: the load did not follow its schedule", lag, maxLagMs)
	}
	n := float64(len(r.res.OpMs))
	// A round has too few fresh jobs for ten to lie beyond the 90th
	// percentile, so this is a layer reading of the round, not a reported
	// tail; the results file keeps every job's queue wait for pooling.
	queueP90, _ := percentile(r.res.Samples["store.queue_ms"], 0.9)
	r.setLayer("store.queue_ms_p90", queueP90)
	r.setLayer("store.cache_hit_ratio", float64(hits)/float64(max(accepted, 1)))
	r.setLayer("store.reject_ratio", float64(rejected)/float64(max(len(jobs), 1)))
	r.setLayer("store.queue_share", queue/max(total, 1e-9))
	r.setLayer("store.exec_share", exec/max(total, 1e-9))
	r.setLayer("api.result_kb", getKB/max(n, 1))
}

// mementod is a daemon process on loopback ports.
type mementod struct {
	cmd   *exec.Cmd
	base  string
	pprof string
	log   bytes.Buffer
	exit  chan error
}

// freePort returns a loopback address nothing listens on at the moment.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startMementod starts the daemon binary with its default workers and
// queue, with the profiling listener when pprof is set, and waits until it
// answers /healthz.
func startMementod(bin string, pprof bool) (*mementod, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	d := &mementod{base: "http://" + addr, exit: make(chan error, 1)}
	if pprof {
		paddr, err := freePort()
		if err != nil {
			return nil, err
		}
		args = append(args, "-pprof", paddr)
		d.pprof = "http://" + paddr + "/debug/pprof"
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.log
	// The daemon dies with the benchmark process, however that ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { d.exit <- d.cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.exit:
			d.exit <- err
			return nil, fmt.Errorf("mementod exited during start-up (%v): %s", err, d.log.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("mementod did not answer /healthz within 30s: %s", d.log.String())
		}
	}
}

func (d *mementod) baseURL() string  { return d.base }
func (d *mementod) pprofURL() string { return d.pprof }

func (d *mementod) usage() (time.Duration, float64, error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks of 1/100 s.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, err
	}
	rss, err := peakRSSMB(pid)
	return time.Duration(utime+stime) * 10 * time.Millisecond, rss, err
}

// stop sends SIGTERM, which drains the daemon, and waits for it to exit,
// killing it if the drain takes longer than 15 s.
func (d *mementod) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return <-d.exit
	}
	select {
	case err := <-d.exit:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		return <-d.exit
	}
}

// profileFetch is a CPU profile being taken through the daemon's
// /debug/pprof/profile endpoint.
type profileFetch struct {
	path string
	done chan error
}

// fetchProfile starts profiling the daemon for d (whole seconds, at least
// one) and writes the profile to path.
func fetchProfile(c *http.Client, pprofURL string, d time.Duration, path string) *profileFetch {
	p := &profileFetch{path: path, done: make(chan error, 1)}
	go func() {
		secs := max(1, int(d/time.Second))
		resp, err := c.Get(fmt.Sprintf("%s/profile?seconds=%d", pprofURL, secs))
		if err != nil {
			p.done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			p.done <- fmt.Errorf("pprof profile: status %d", resp.StatusCode)
			return
		}
		f, err := os.Create(path)
		if err != nil {
			p.done <- err
			return
		}
		_, err = io.Copy(f, resp.Body)
		p.done <- errors.Join(err, f.Close())
	}()
	return p
}

func (p *profileFetch) wait() error { return <-p.done }

// totalAlloc reads the daemon's cumulative heap allocation (MemStats
// TotalAlloc) from the text form of its heap profile.
func totalAlloc(c *http.Client, pprofURL string) (uint64, error) {
	resp, err := c.Get(pprofURL + "/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("heap profile has no TotalAlloc line")
}
