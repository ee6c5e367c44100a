package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/experiments"
	"locusroute/internal/par"
	"locusroute/internal/part"
	"locusroute/internal/route"
	"locusroute/pkg/locusroute"
)

// offline: route the 10x-scaled bnrE-like circuit through
// pkg/locusroute with the sequential and the partitioned backend
// (partitions = CPUs), replay the sequential schedule through the
// routing kernel one timed call per wire, then regenerate every paper
// table in process with a pool of one worker per CPU.
const (
	offlineScale = 10
	// offlineGenSeed is the generator seed of the scaled circuit: the
	// canonical one of `paper -table partition`. The workload is
	// deterministic and does not vary it with the workload seed:
	// across generator seeds 1-8 the circuit height alone ranges from
	// 255 to 434 tracks, which would drown the timing signal.
	offlineGenSeed = 1
	// seqHash is the sha256 of the sequential router's final cost array
	// on that circuit (little-endian int32 cells).
	seqHash = "7879857068e41b1e648762016fc2e131ed30d5ba383fbf2d0ec11e73dffef34b"
	// paperSHA is the sha256 of `paper -all` (every table, each followed
	// by a newline), identical at every pool size.
	paperSHA = "848fd4f18a546f8c97d99724c4d85ad0ec9a586cb4f009fd7109080e9f791427"
	// paperSmallSHA is the sha256 of `paper -table 3`, the paper step
	// of the self-test's small runs.
	paperSmallSHA = "3b5a2d8486d511c4ea6a5e21a6e0bc427587004f76152cb64741c39e4dc5b6df"
)

func scaledCircuit() (*circuit.Circuit, error) {
	return circuit.Generate(circuit.Scaled(circuit.BnrELike(offlineGenSeed), offlineScale))
}

// arrayHash is the sha256 of a cost array's little-endian int32 cells.
func arrayHash(a *costarray.CostArray) string {
	h := sha256.New()
	var buf [4]byte
	for _, v := range a.Cells() {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// passes holds the repeated full-circuit routes of one run.
type passes struct {
	seq, part   dist // wall seconds
	seqHashes   []string
	partHashes  []string
	partResult  locusroute.Result
	wiresRouted int
}

// routePasses alternates sequential and partitioned routes of c until
// budget has passed and each backend ran at least minReps times.
func routePasses(c *circuit.Circuit, budget time.Duration, minReps int) (*passes, error) {
	nproc := runtime.NumCPU()
	seqBE, err := locusroute.NewSequential()
	if err != nil {
		return nil, err
	}
	partBE, err := locusroute.NewPartitioned(locusroute.WithPartitions(nproc))
	if err != nil {
		return nil, err
	}
	p := &passes{}
	ctx := context.Background()
	start := time.Now()
	for len(p.seq) < minReps || time.Since(start) < budget {
		res, err := seqBE.Route(ctx, locusroute.Request{Circuit: c})
		if err != nil {
			return nil, err
		}
		p.seq = append(p.seq, res.Wall.Seconds())
		p.seqHashes = append(p.seqHashes, arrayHash(res.Final))
		res, err = partBE.Route(ctx, locusroute.Request{Circuit: c})
		if err != nil {
			return nil, err
		}
		p.part = append(p.part, res.Wall.Seconds())
		p.partHashes = append(p.partHashes, arrayHash(res.Final))
		p.partResult = res
	}
	p.wiresRouted = p.partResult.WiresRouted
	if p.wiresRouted == 0 {
		p.wiresRouted = len(c.Wires) * route.DefaultParams().Iterations
	}
	return p, nil
}

// check records the route-hash checks of the passes.
func (p *passes) check(r *report, want string) {
	var err error
	for i, h := range p.seqHashes {
		if h != want {
			err = fmt.Errorf("pass %d: sequential route hash %s, recorded %s", i, h, want)
			break
		}
	}
	r.check("scaled sequential route hash matches record", err)
	err = nil
	if len(p.partHashes) < 2 {
		err = errors.New("fewer than two partitioned passes")
	}
	for i, h := range p.partHashes {
		if h != p.partHashes[0] {
			err = fmt.Errorf("pass %d: partitioned route hash %s, pass 0 %s", i, h, p.partHashes[0])
			break
		}
	}
	r.check("partitioned route identical across passes", err)
	r.count(len(p.seq)+len(p.part), 0)
}

// kernel is the outcome of replaying the sequential schedule through
// route.Scratch.RouteWire with one timed call per wire.
type kernel struct {
	lat         dist // per-call microseconds
	cells       int64
	calls       int
	allocs      float64 // per call, from an untimed pass
	untimedWall time.Duration
	timedWall   time.Duration
	hash        string
}

// kernelReplay routes c the way route.Sequential does (route every
// wire, then rip up and reroute each for the remaining iterations),
// calling the kernel from this package so each call can be timed. The
// final array must equal the sequential backend's.
func kernelReplay(c *circuit.Circuit, timed bool) kernel {
	params := route.DefaultParams()
	arr := costarray.New(c.Grid)
	view := route.ArrayView{A: arr}
	sc := route.NewScratch(c.Grid)
	paths := make([]route.Path, len(c.Wires))
	var k kernel
	var ms0, ms1 runtime.MemStats
	if !timed {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	for it := 0; it < params.Iterations; it++ {
		for i := range c.Wires {
			if it > 0 {
				route.RipUp(view, paths[i])
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			ev := sc.RouteWire(view, &c.Wires[i], params)
			if timed {
				k.lat = append(k.lat, us(time.Since(t0)))
			}
			route.Commit(view, ev.Path)
			paths[i] = ev.Path
			k.cells += int64(ev.CellsExamined)
			k.calls++
		}
	}
	wall := time.Since(start)
	if timed {
		k.timedWall = wall
	} else {
		k.untimedWall = wall
		runtime.ReadMemStats(&ms1)
		k.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(k.calls)
	}
	k.hash = arrayHash(arr)
	return k
}

// paperRun regenerates the paper's tables in process and checks the
// output's sha256; small runs render table 3 only.
func paperRun(o *options, r *report, workers int) (float64, error) {
	names, want := experiments.TableNames(), paperSHA
	if o.small {
		names, want = []string{"3"}, paperSmallSHA
	}
	s := experiments.DefaultSetup()
	s.Pool = par.New(workers)
	t0 := time.Now()
	tables, err := experiments.RenderSet(names, experiments.BnrE(), experiments.MDC(), s)
	if err != nil {
		return 0, err
	}
	wall := time.Since(t0)
	r.check(fmt.Sprintf("paper tables sha256 (par %d)", workers), shaCheck(tables, expected(o.fault.paperSHA, want)))
	r.count(1, 0)
	return wall.Seconds(), nil
}

func shaCheck(tables []string, want string) error {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t)
		b.WriteString("\n")
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := hex.EncodeToString(sum[:]); got != want {
		return fmt.Errorf("sha256 %s, want %s", got, want)
	}
	return nil
}

// peakRSSSelfMB is this process's peak resident set in MiB.
func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// setupReps is how many times offline generates its circuit; one
// generation takes about 2 ms, so a median needs many.
const setupReps = 25

// offlineSetup generates the run's scaled circuit several times and
// returns it with the median generation time.
func offlineSetup() (*circuit.Circuit, float64, error) {
	var times dist
	var c *circuit.Circuit
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		var err error
		if c, err = scaledCircuit(); err != nil {
			return nil, 0, err
		}
		times = append(times, secs(time.Since(t0)))
	}
	return c, times.median(), nil
}

// expected is want, unless the self-test injected a wrong expectation.
func expected(fault, want string) string {
	if fault != "" {
		return fault
	}
	return want
}

// offline runs the untraced offline workload.
func offline(o *options, r *report) error {
	c, setup, err := offlineSetup()
	if err != nil {
		return err
	}
	minReps := 5
	if o.small {
		minReps = 2
	}
	p, err := routePasses(c, time.Duration(0.3*o.seconds*float64(time.Second)), minReps)
	if err != nil {
		return err
	}
	p.check(r, expected(o.fault.seqHash, seqHash))
	k := kernelReplay(c, true)
	r.check("kernel replay equals the sequential backend", hashEqual(k.hash, p.seqHashes[0]))
	r.count(k.calls, 0)
	// The route step's peak; the paper step's is noted on its own, as
	// its parallel simulations make it vary by about 15% run to run.
	rss := peakRSSSelfMB()
	paperS, err := paperRun(o, r, runtime.NumCPU())
	if err != nil {
		return err
	}
	res := p.partResult
	r.common(setup, setupReps, int(r.attempted), 0, rss, float64(res.CircuitHeight))
	r.e2e("p50_us", "route_seq_us", p.seq.median()*1e6, "us", len(p.seq))
	r.e2e("ops_per_s", "part_wires_per_s", float64(p.wiresRouted)/p.part.median(), "1/s", len(p.part))
	r.note("route_seq_s", p.seq.median(), "s", len(p.seq))
	r.note("route_part_s", p.part.median(), "s", len(p.part))
	r.note("occupancy", float64(res.Occupancy), "cost", 0)
	r.note("route.wire_p50_us", k.lat.median(), "us", len(k.lat))
	r.note("route.wire_p99_us", k.lat.pct(0.99), "us", len(k.lat))
	r.note("paper_all_s", paperS, "s", 1)
	r.note("paper_peak_rss_mb", peakRSSSelfMB(), "MB", 0)
	return nil
}

func hashEqual(got, want string) error {
	if got != want {
		return fmt.Errorf("hash %s, want %s", got, want)
	}
	return nil
}

// offlineLayers is the offline part of a traced run.
func offlineLayers(o *options, r *report, budget time.Duration) error {
	c, _, err := offlineSetup()
	if err != nil {
		return err
	}
	layer := r.layer
	nproc := runtime.NumCPU()
	p, err := routePasses(c, budget, 3)
	if err != nil {
		return err
	}
	p.check(r, expected(o.fault.seqHash, seqHash))
	layer("backend.route_seq_s", p.seq.median(), "s", len(p.seq))
	layer("backend.route_part_s", p.part.median(), "s", len(p.part))
	layer("part.speedup", p.seq.median()/p.part.median(), "x", len(p.part))

	_, _, st, err := part.Route(c, route.DefaultParams(), part.Config{Partitions: nproc})
	if err != nil {
		return err
	}
	var maxNs, sumNs float64
	for _, ns := range st.RegionWallNs {
		maxNs = max(maxNs, float64(ns))
		sumNs += float64(ns)
	}
	layer("part.boundary_frac", st.BoundaryFrac(), "ratio", st.TotalWires)
	layer("part.region_imbalance", maxNs/(sumNs/float64(len(st.RegionWallNs))), "ratio", len(st.RegionWallNs))

	// Alternate untimed and timed replays: the difference of their
	// median walls is what timing every kernel call costs.
	var untimed, timed kernel
	var untimedWall, timedWall dist
	for i := 0; i < 3; i++ {
		untimed = kernelReplay(c, false)
		timed = kernelReplay(c, true)
		untimedWall = append(untimedWall, secs(untimed.untimedWall))
		timedWall = append(timedWall, secs(timed.timedWall))
		r.count(untimed.calls+timed.calls, 0)
	}
	r.check("kernel replay equals the sequential backend", hashEqual(timed.hash, p.seqHashes[0]))
	layer("route.wire_p50_us", timed.lat.median(), "us", len(timed.lat))
	layer("route.wire_p99_us", timed.lat.pct(0.99), "us", len(timed.lat))
	layer("route.cells_per_wire", float64(timed.cells)/float64(timed.calls), "count", timed.calls)
	layer("route.allocs_per_wire", untimed.allocs, "count", untimed.calls)
	timerUs := (timedWall.median() - untimedWall.median()) * 1e6 / float64(timed.calls)

	// Each table on its own with one worker, then all of them with one
	// worker per CPU: their ratio is the experiment driver's efficiency.
	s := experiments.DefaultSetup()
	s.Pool = par.New(1)
	bnrE, mdc := experiments.BnrE(), experiments.MDC()
	var tables []string
	serial := 0.0
	for _, name := range experiments.TableNames() {
		t0 := time.Now()
		text, err := experiments.Render(name, bnrE, mdc, s)
		if err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		serial += d
		tables = append(tables, text)
		layer("experiments.table_"+name+"_s", d, "s", 1)
	}
	r.check("paper tables sha256 (one table at a time, par 1)", shaCheck(tables, expected(o.fault.paperSHA, paperSHA)))
	r.count(len(tables), 0)
	all := &report{values: map[string]float64{}}
	paperS, err := paperRun(&options{fault: o.fault}, all, nproc)
	if err != nil {
		return err
	}
	r.checks = append(r.checks, all.checks...)
	r.count(int(all.attempted), int(all.failed))
	layer("experiments.paper_all_s", paperS, "s", 1)
	layer("par.efficiency", serial/(float64(nproc)*paperS), "ratio", 1)

	kernelS := untimedWall.median()
	seqS := p.seq.median()
	rows := []layerRow{
		{"route kernel (untimed replay of the sequential pass)", kernelS},
		{"backend.sequential (rest of the pass)", seqS - kernelS},
		{"part.Route (partitioned pass)", p.part.median()},
		{"experiments (paper -all, par " + fmt.Sprint(nproc) + ")", paperS},
	}
	r.tables = append(r.tables, layerTable(
		"offline per-layer self time (medians; end to end = route_seq_s + route_part_s + paper_all_s)",
		seqS+p.part.median()+paperS, "s", rows,
		fmt.Sprintf("tracing overhead: %.3f us per timed kernel call (timed vs untimed replay)", timerUs)))
	return nil
}
