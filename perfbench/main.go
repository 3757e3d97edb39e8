// Command perfbench is the repository's end-to-end benchmark: it builds
// one named workload from a seed, times calls into each layer's public
// functions from outside, checks every simulated outcome, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload gst-grid --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is a separate run
// that wraps the protocol and channel in counting shims and prints the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// A warm set-up quicker than batchBelow is timed in batches: each
	// sample repeats the set-up until minSetupSample has passed and
	// reports the mean, so the figure is not timer jitter. Slower
	// set-ups are timed one at a time.
	batchBelow     = time.Millisecond
	minSetupSample = 20 * time.Millisecond
	// setupSamples is how many timed set-ups a run makes, cycling over
	// the instances; setup_s is their median.
	setupSamples = 2 * instances
	// The summed set-up layer spans may fall short of the traced
	// set-up's total by setupTolerance of it, or by setupSlack per
	// set-up, whichever is larger: the slack covers the probes
	// themselves on set-ups that take microseconds.
	setupTolerance = 0.05
	setupSlack     = 10 * time.Microsecond
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "seconds of timed broadcasts")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	recordN := flag.Int("record", 0, "record set-up fingerprints and digests for workload seeds [0, n) into "+expectedPath+", then exit")
	flag.Parse()

	if *recordN > 0 {
		ws := workloads
		if *name != "" {
			ws = []*workload{findWorkload(*name)}
			if ws[0] == nil {
				fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
				return 2
			}
		}
		if err := recordSeeds(ws, *recordN); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	exp, err := parseExpectations(expectedJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var log *spanLog
	if *trace == 1 {
		log = &spanLog{epoch: time.Now()}
	}
	rep := measure(w, *seed, time.Duration(*seconds)*time.Second, log, exp)
	if log != nil {
		path := traceFile(w.name, *seed)
		if err := log.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(log.spans), path)
	}
	return rep.print()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setupRun is the timing of a run's set-ups.
type setupRun struct {
	seconds []float64 // per set-up, one entry per timed sample
	// Traced runs only, one entry per timed sample: each layer's time and
	// allocation per set-up, and the part of the set-up the layer spans
	// leave uncovered.
	layerMs    map[string][]float64
	layerAlloc map[string][]float64
	residual   []float64 // uncovered share
	residualNs []float64 // uncovered time per set-up
	// Means over the instances of the exact structure counts.
	edges, csrBytes, levels float64
	fingerprint             string // over every instance, in order
	consistent              bool   // every timed set-up fingerprinted as its first
	fps                     []hash // per instance, from the first build
	batched                 bool
}

// buildInstances makes the run's set-ups, untimed, and records their
// fingerprints and structure counts. Whether timed set-ups are batched
// is decided from the last, warm, build.
func buildInstances(w *workload, seed uint64) ([]*structure, *setupRun) {
	su := &setupRun{consistent: true, layerMs: map[string][]float64{}, layerAlloc: map[string][]float64{}}
	ss := make([]*structure, instances)
	all := newHash()
	var last time.Duration
	for k := range ss {
		t := time.Now()
		ss[k] = w.setup(instanceSeed(seed, k), nil)
		last = time.Since(t)
		f := facts(ss[k])
		su.fps = append(su.fps, f.fingerprint)
		all.add(int64(f.fingerprint))
		su.edges += float64(f.edges) / instances
		su.csrBytes += float64(f.csrBytes) / instances
		su.levels += float64(f.levels) / instances
	}
	su.fingerprint = all.String()
	su.batched = last < batchBelow
	return ss, su
}

// time times one more set-up of instance k, which must fingerprint the
// same as its first build, and throws it away. An untimed set-up of the
// same instance goes first, so the timed one does not pay for the cache
// and heap state the broadcasts before it left.
func (su *setupRun) time(w *workload, seed uint64, k int, log *spanLog) {
	var clocks []*layerClock
	w.setup(instanceSeed(seed, k), nil)
	var s *structure
	t0 := time.Now()
	batch := 0
	for batch == 0 || su.batched && time.Since(t0) < minSetupSample {
		var lc *layerClock
		if log != nil {
			lc = newLayerClock(log, fmt.Sprintf("setup/%d/%d", k, batch))
			clocks = append(clocks, lc)
		}
		s = w.setup(instanceSeed(seed, k), lc)
		lc.close()
		batch++
	}
	el := time.Since(t0)
	su.seconds = append(su.seconds, el.Seconds()/float64(batch))
	if facts(s).fingerprint != su.fps[k] {
		su.consistent = false
	}
	if log == nil {
		return
	}
	var covered int64
	for _, name := range w.layers {
		var ns int64
		var alloc uint64
		for _, lc := range clocks {
			ns += lc.ns[name]
			alloc += lc.alloc[name]
		}
		covered += ns
		su.layerMs[name] = append(su.layerMs[name], float64(ns)/1e6/float64(batch))
		su.layerAlloc[name] = append(su.layerAlloc[name], float64(alloc)/float64(batch))
	}
	su.residual = append(su.residual, 1-float64(covered)/float64(el))
	su.residualNs = append(su.residualNs, float64(int64(el)-covered)/float64(batch))
}

// report is everything one run measured.
type report struct {
	w         *workload
	traced    bool
	attempted int
	failed    int
	why       []string // reasons the outputs are wrong
	setup     *setupRun
	digest    string   // over the first cycle's outcomes
	plain     []result // untraced broadcasts
	tracedRes []result // traced broadcasts (traced runs only)
	cycle     []result // the first cycle of untraced broadcasts
	loop      usage    // the timed broadcasts' CPU time and GC work
	heapLive  uint64
}

// measure runs one workload: the set-ups, one untimed warm-up
// broadcast, then broadcasts for dur (and at least one full seed
// cycle). A traced run pairs every untraced broadcast with a traced one
// on the same seed, alternating which goes first.
//
// The timed set-ups are spread evenly over the broadcasts, so that a slow spell of the shared machine, which lasts a
// fraction of a second, moves a few of them rather than all. The CPU
// time and GC work they cost are left out of the broadcast figures.
func measure(w *workload, seed uint64, dur time.Duration, log *spanLog, exp *expectations) *report {
	rep := &report{w: w, traced: log != nil}
	ss, su := buildInstances(w, seed)
	rep.setup = su
	rec, recorded := exp.lookup(w.name, seed)
	if recorded && rec.Setup != su.fingerprint {
		rep.why = append(rep.why, fmt.Sprintf("set-up fingerprint %s, recorded %s", su.fingerprint, rec.Setup))
	}
	warm := w.broadcast(ss[w.broadcastInstance(0)], w.broadcastSeed(seed, 0), false)

	u0 := readUsage()
	var inSetup usage
	start := time.Now()
	for i := 0; i < w.cycle || time.Since(start) < dur; i++ {
		if j := len(su.seconds); j < setupSamples && time.Since(start) >= dur*time.Duration(j)/setupSamples {
			u := readUsage()
			su.time(w, seed, j%instances, log)
			inSetup = inSetup.add(readUsage().sub(u))
		}
		s, bs := ss[w.broadcastInstance(i)], w.broadcastSeed(seed, i)
		var plain, traced result
		if log != nil && i%2 == 1 {
			traced = rep.tracedBroadcast(s, bs, i, log)
		}
		plain = w.broadcast(s, bs, false)
		if log != nil && i%2 == 0 {
			traced = rep.tracedBroadcast(s, bs, i, log)
		}
		if i < w.cycle {
			rep.cycle = append(rep.cycle, plain)
		}
		want := rep.cycle[i%w.cycle].triple
		rep.check(plain, want)
		rep.plain = append(rep.plain, plain)
		if log != nil {
			rep.check(traced, want)
			rep.tracedRes = append(rep.tracedRes, traced)
		}
	}
	rep.loop = readUsage().sub(u0).sub(inSetup)
	rep.heapLive = readMetric("/gc/heap/live:bytes")
	for j := len(su.seconds); j < setupSamples; j++ {
		su.time(w, seed, j%instances, log)
	}
	if !su.consistent {
		rep.why = append(rep.why, "two set-ups of one seed differ")
	}

	if warm.triple != rep.cycle[0].triple {
		rep.why = append(rep.why, "warm-up broadcast differs from the same seed's timed broadcast")
	}
	cycle := make([]triple, len(rep.cycle))
	for i, r := range rep.cycle {
		cycle[i] = r.triple
	}
	rep.digest = digest(cycle)
	if recorded && rep.digest != rec.Digest {
		rep.why = append(rep.why, fmt.Sprintf("broadcast digest %s, recorded %s", rep.digest, rec.Digest))
	}
	if !recorded && dur > 0 {
		fmt.Printf("seed %d has no recorded digest: coverage and repeatability checked only\n", seed)
	}
	if rep.traced {
		if r, ns := median(su.residual), median(su.residualNs); r > setupTolerance && ns > float64(setupSlack) {
			rep.why = append(rep.why, fmt.Sprintf("set-up layer spans leave %.1f%% (%.0f ns) of set-up uncovered", 100*r, ns))
		}
	}
	if len(rep.why) > 0 {
		rep.failed = rep.attempted // a wrong set-up or digest spoils every broadcast
	}
	return rep
}

// tracedBroadcast runs one traced broadcast and records its spans.
func (rep *report) tracedBroadcast(s *structure, seed uint64, i int, log *spanLog) result {
	t0 := time.Now()
	r := rep.w.broadcast(s, seed, true)
	t1 := time.Now()
	trace := fmt.Sprintf("broadcast/%d", i)
	root := log.add(trace, 0, "broadcast", t0, t1, map[string]int64{
		"seed_index": int64(i % rep.w.cycle), "instance": int64(rep.w.broadcastInstance(i)),
		"rounds": r.triple.rounds, "alloc_bytes": int64(r.allocBytes)})
	mid := t0.Add(time.Duration(r.setupNs))
	log.add(trace, root, "radio.setup", t0, mid, nil)
	log.add(trace, root, "radio.run", mid, mid.Add(time.Duration(r.runNs)), map[string]int64{
		"step_ns": r.calls.stepNs, "callback_ns": r.calls.callbackNs,
		"deliver_calls": r.calls.deliver, "packet_calls": r.calls.packet,
		"droplink_calls": r.calls.dropLink, "observe_calls": r.calls.observe})
	return r
}

// check counts a broadcast and fails it when it did not cover the graph
// or its outcome differs from the first run of the same seed.
func (rep *report) check(r result, want triple) {
	rep.attempted++
	if !r.covered || r.triple != want {
		rep.failed++
	}
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named pairs a metric with its name, in print order.
type named struct {
	name string
	metric
}

// endToEnd are the metrics of an untraced run.
func (rep *report) endToEnd() []named {
	total := pluck(rep.plain, func(r result) float64 { return float64(r.totalNs) / 1e6 })
	rate := pluck(rep.plain, func(r result) float64 { return float64(r.triple.rounds) / (float64(r.runNs) / 1e9) })
	tail, beyond := percentile(total, rep.w.tailPct)
	fmt.Printf("broadcast_tail_ms is p%g over %d broadcasts (%d beyond it)\n", rep.w.tailPct, len(total), beyond)
	return []named{
		{"setup_s", metric{median(rep.setup.seconds), "s"}},
		{"broadcast_p50_ms", metric{median(total), "ms"}},
		{"broadcast_tail_ms", metric{tail, "ms"}},
		{"sim_rounds_per_s", metric{median(rate), "1/s"}},
		{"cpu_per_broadcast_ms", metric{1e3 * rep.loop.cpu / float64(len(rep.plain)), "ms"}},
	}
}

// perLayer are the metrics of a traced run. Set-up layers and counters
// that a workload does not exercise read 0.
func (rep *report) perLayer() []named {
	su := rep.setup
	ms := func(name string) float64 { return median(su.layerMs[name]) }
	alloc := func(names ...string) float64 {
		var b float64
		for _, n := range names {
			b += median(su.layerAlloc[n])
		}
		return b
	}
	var sumMs float64
	for _, name := range rep.w.layers {
		sumMs += ms(name)
	}

	// Exact counters: means over the first seed cycle.
	var c struct {
		rounds, tx, deliv, coll, polls, busy, silent, frontier, dropped float64
		deliver, packet, dropLink, observe                              float64
	}
	for _, r := range rep.cycle {
		st := r.stats
		c.rounds += float64(st.Rounds)
		c.tx += float64(st.Transmissions)
		c.deliv += float64(st.Deliveries)
		c.coll += float64(st.CollisionObs)
		c.polls += float64(st.Polls)
		c.busy += float64(st.BusyRounds)
		c.silent += float64(st.SilentRounds)
		c.frontier += float64(st.MaxFrontier)
		c.dropped += float64(st.Dropped)
	}
	for _, r := range rep.tracedRes[:len(rep.cycle)] {
		c.deliver += float64(r.calls.deliver)
		c.packet += float64(r.calls.packet)
		c.dropLink += float64(r.calls.dropLink)
		c.observe += float64(r.calls.observe)
	}
	k := float64(len(rep.cycle))

	// Host-time ratios over every untraced broadcast of the run.
	var runNs, rounds, deliv, polls float64
	for _, r := range rep.plain {
		runNs += float64(r.runNs)
		rounds += float64(r.triple.rounds)
		deliv += float64(r.stats.Deliveries)
		polls += float64(r.stats.Polls)
	}
	plainMs := func(f func(r result) int64) float64 {
		return median(pluck(rep.plain, func(r result) float64 { return float64(f(r)) / 1e6 }))
	}
	tracedMs := func(f func(r result) int64) float64 {
		return median(pluck(rep.tracedRes, func(r result) float64 { return float64(f(r)) / 1e6 }))
	}
	untracedP50 := plainMs(func(r result) int64 { return r.totalNs })
	tracedP50 := tracedMs(func(r result) int64 { return r.totalNs })
	t11 := rep.cycle[0].t11

	return []named{
		{"geo.layout_ms", metric{ms("geo.layout"), "ms"}},
		{"geo.disk_index_ms", metric{ms("geo.disk_index"), "ms"}},
		{"graph.build_ms", metric{ms("graph.build"), "ms"}},
		{"graph.diameter_ms", metric{ms("graph.diameter"), "ms"}},
		{"graph.alloc_bytes", metric{alloc("graph.build"), "bytes"}},
		{"graph.edges", metric{su.edges, "count"}},
		{"graph.csr_bytes", metric{su.csrBytes, "bytes"}},
		{"gst.construct_ms", metric{ms("gst.construct"), "ms"}},
		{"gst.flatten_ms", metric{ms("gst.flatten"), "ms"}},
		{"gst.alloc_bytes", metric{alloc("gst.construct", "gst.flatten"), "bytes"}},
		{"gst.levels", metric{su.levels, "count"}},
		{"harness.stack_ms", metric{ms("harness.stack"), "ms"}},
		{"setup.traced_ms", metric{1e3 * median(su.seconds), "ms"}},
		{"setup.layer_sum_ms", metric{sumMs, "ms"}},
		{"setup.uncovered_frac", metric{median(su.residual), "ratio"}},
		{"setup.uncovered_us", metric{median(su.residualNs) / 1e3, "us"}},
		{"radio.setup_ms", metric{plainMs(func(r result) int64 { return r.setupNs }), "ms"}},
		{"radio.run_ms", metric{plainMs(func(r result) int64 { return r.runNs }), "ms"}},
		{"radio.alloc_bytes_per_broadcast", metric{median(pluck(rep.tracedRes, func(r result) float64 { return float64(r.allocBytes) })), "bytes"}},
		{"radio.ns_per_round", metric{ratio(runNs, rounds), "ns"}},
		{"radio.ns_per_delivery", metric{ratio(runNs, deliv), "ns"}},
		{"radio.ns_per_poll", metric{ratio(runNs, polls), "ns"}},
		{"radio.engine_self_ms", metric{tracedMs(func(r result) int64 { return r.calls.stepNs - r.calls.callbackNs }), "ms"}},
		{"radio.rounds", metric{c.rounds / k, "count"}},
		{"radio.transmissions", metric{c.tx / k, "count"}},
		{"radio.deliveries", metric{c.deliv / k, "count"}},
		{"radio.collisions", metric{c.coll / k, "count"}},
		{"radio.polls", metric{c.polls / k, "count"}},
		{"radio.busy_rounds", metric{c.busy / k, "count"}},
		{"radio.silent_rounds", metric{c.silent / k, "count"}},
		{"radio.max_frontier", metric{c.frontier / k, "count"}},
		{"radio.utilization", metric{ratio(c.busy, c.busy+c.silent), "ratio"}},
		{"protocol.callback_ms", metric{tracedMs(func(r result) int64 { return r.calls.callbackNs }), "ms"}},
		{"protocol.deliver_calls", metric{c.deliver / k, "count"}},
		{"protocol.packet_calls", metric{c.packet / k, "count"}},
		{"channel.droplink_calls", metric{c.dropLink / k, "count"}},
		{"channel.observe_calls", metric{c.observe / k, "count"}},
		{"channel.drop_frac", metric{ratio(c.dropped, c.dropped+c.deliv), "ratio"}},
		{"rings.wave_rounds", metric{float64(t11.WaveRounds), "count"}},
		{"rings.build_rounds", metric{float64(t11.BuildRounds), "count"}},
		{"rings.spread_budget", metric{float64(t11.SpreadBudget), "count"}},
		{"runtime.gc_cycles", metric{float64(rep.loop.gcCycles), "count"}},
		{"runtime.gc_pause_ms", metric{float64(rep.loop.gcPauseNs) / 1e6, "ms"}},
		{"runtime.heap_live_bytes", metric{float64(rep.heapLive), "bytes"}},
		{"runtime.peak_rss_bytes", metric{float64(peakRSS()), "bytes"}},
		{"trace.untraced_p50_ms", metric{untracedP50, "ms"}},
		{"trace.traced_p50_ms", metric{tracedP50, "ms"}},
		{"trace.overhead_frac", metric{tracedP50/untracedP50 - 1, "ratio"}},
	}
}

// print writes one line per metric, then the result object as the last
// line, and returns the exit code.
func (rep *report) print() int {
	var ms []named
	if rep.traced {
		ms = rep.perLayer()
		fmt.Printf("set-up shares (traced set-up %.3f ms):\n", 1e3*median(rep.setup.seconds))
		for _, name := range rep.w.layers {
			share := median(rep.setup.layerMs[name]) / (1e3 * median(rep.setup.seconds))
			fmt.Printf("  %-16s %6.1f%%\n", name, 100*share)
		}
	} else {
		ms = rep.endToEnd()
	}
	for _, why := range rep.why {
		fmt.Println("INCORRECT:", why)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, map[string]metric{}}
	for _, m := range ms {
		fmt.Printf("%-34s %s %s\n", m.name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		out.Metrics[m.name] = m.metric
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(blob))
	return 0
}

func pluck(rs []result, f func(result) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile is the nearest-rank p-th percentile and the number of
// samples above its rank.
func percentile(xs []float64, p float64) (float64, int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := max(int(math.Ceil(float64(len(s))*p/100))-1, 0)
	return s[rank], len(s) - 1 - rank
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time in seconds.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// usage is the process's CPU time in seconds, completed GC cycles and
// total stop-the-world pause time.
type usage struct {
	cpu                 float64
	gcCycles, gcPauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpuTime(), uint64(ms.NumGC), ms.PauseTotalNs}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.gcCycles + v.gcCycles, u.gcPauseNs + v.gcPauseNs}
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.gcCycles - v.gcCycles, u.gcPauseNs - v.gcPauseNs}
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// peakRSS is the process's peak resident set (VmHWM) in bytes. The
// process runs a single workload, so this is that workload's peak.
func peakRSS() int64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}
