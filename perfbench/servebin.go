package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/locusd"
	"locusroute/internal/reqtrace"
	"locusroute/internal/route"
	"locusroute/internal/wire"
)

// serve-bin: open-loop route reads over the binary protocol against the
// circuits locusd serves by default (bnrE- and MDC-like, generator seed
// 1). No commits, no mutations, no policy elements.
const (
	// binRefRate is the reference rate, well below the knee (about 830
	// requests/s with two connections and the default 2 ms batch window
	// on a 2-CPU box).
	binRefRate = 250.0
	// binLimitUs is the p99 limit of the rate search.
	binLimitUs = 50_000.0
	// boots is how many times set-up runs per run; setup_s is the median.
	boots = 5
)

// conns is the generator's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }

// binCircuits returns the circuits locusd serves by default and every
// wire of theirs as a generator input.
func binCircuits() ([]*circuit.Circuit, []string, []genWire, error) {
	var circs []*circuit.Circuit
	for _, gen := range []func(int64) circuit.GenParams{circuit.BnrELike, circuit.MDCLike} {
		c, err := circuit.Generate(gen(1))
		if err != nil {
			return nil, nil, nil, err
		}
		circs = append(circs, c)
	}
	names, wires := genInputs(circs)
	return circs, names, wires, nil
}

// genInputs flattens circuits into generator inputs.
func genInputs(circs []*circuit.Circuit) ([]string, []genWire) {
	var names []string
	var wires []genWire
	for ci, c := range circs {
		names = append(names, c.Name)
		for _, w := range c.Wires {
			wires = append(wires, genWire{C: ci, ID: w.ID, Pins: pinPairs(w.Pins)})
		}
	}
	return names, wires
}

func pinPairs(pins []geom.Point) [][2]int {
	out := make([][2]int, len(pins))
	for i, p := range pins {
		out[i] = [2]int{p.X, p.Y}
	}
	return out
}

func points(pairs [][2]int) []geom.Point {
	out := make([]geom.Point, len(pairs))
	for i, p := range pairs {
		out[i] = geom.Pt(p[0], p[1])
	}
	return out
}

// bootMedian starts a daemon `boots` times, keeping the last one
// running, and returns it with the median time to ready.
func bootMedian(start func(k int) (*daemon, time.Duration, error)) (*daemon, float64, error) {
	var times dist
	for k := 0; k < boots; k++ {
		d, ready, err := start(k)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, secs(ready))
		if k == boots-1 {
			return d, times.median(), nil
		}
		if err := d.stop(); err != nil {
			return nil, 0, err
		}
	}
	panic("unreachable")
}

// binSpec is the serve-bin generator spec without a ladder.
func binSpec(o *options, names []string, wires []genWire, addr string, refSecs float64, traced bool) genSpec {
	refN := int(binRefRate * refSecs)
	if refN < 1000 && !o.small {
		refN = 1000
	}
	return genSpec{
		Mode: "bin-open", Addr: addr, Seed: o.seed, Conns: conns(),
		Circuits: names, Wires: wires,
		WarmN: 100, RefRate: binRefRate, RefN: refN, Traced: traced, SampleEvery: 10,
	}
}

// serveBin runs the untraced serve-bin workload.
func serveBin(ctx context.Context, o *options, r *report) error {
	circs, names, wires, err := binCircuits()
	if err != nil {
		return err
	}
	d, setup, err := bootMedian(func(int) (*daemon, time.Duration, error) {
		d, err := startDaemon(o.locusd)
		if err != nil {
			return nil, 0, err
		}
		return d, d.ready, nil
	})
	if err != nil {
		return err
	}
	spec := binSpec(o, names, wires, d.binAddr, 0.3*o.seconds, false)
	spec.Ladder = &ladderSpec{
		LimitUs: binLimitUs, MaxRate: 128 * binRefRate, Bisect: 6,
		MinN: 1000, StepSecs: o.seconds / 20,
	}
	if o.small {
		spec.Ladder.Bisect, spec.Ladder.MinN, spec.Ladder.MaxRate = 1, 100, 4*binRefRate
	}
	res, genErr := runGeneratorProcess(ctx, spec)
	rss, rssErr := d.peakRSSMB()
	var served circuitsDoc
	docErr := d.getJSON("/v1/circuits", &served)
	r.check("locusd drained cleanly", d.stop())
	if err := errors.Join(genErr, rssErr, docErr); err != nil {
		return err
	}
	var height int64
	for _, c := range served.Circuits {
		height += c.CircuitHeight
	}
	phases := append([]phaseStats{*res.Ref}, res.Steps...)
	r.check("serve-bin responses equal route.RouteWire", checkSamples(circs, wires, phases, o.fault.corruptCost))
	attempted, failed := countPhases(phases)
	r.count(attempted, failed)
	ref := res.Ref
	r.common(setup, boots, attempted, failed, rss, float64(height))
	r.e2e("p50_us", "route_p50_us", ref.P50Us, "us", ref.OK)
	r.note("route_p90_us", ref.P90Us, "us", ref.OK)
	r.note("route_p99_us", ref.P99Us, "us", ref.OK)
	r.e2e("ops_per_s", "route_max_qps", res.MaxQPS, "1/s", len(res.Steps))
	r.note("route_limit_p99_us", binLimitUs, "us", 0)
	r.note("ref_rate", binRefRate, "1/s", 0)
	r.note("client.lag_us", ref.LagP99Us, "us", ref.LagN)
	r.tables = append(r.tables, ladderTable(res))
	return nil
}

func countPhases(phases []phaseStats) (attempted, failed int) {
	for _, p := range phases {
		attempted += p.N
		failed += p.Fails.total()
	}
	return attempted, failed
}

// ladderTable renders the rate search.
func ladderTable(res *genResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rate search (p99 limit %.0f us; failures count as misses)\n", binLimitUs)
	fmt.Fprintf(&b, "  %10s %7s %6s %12s %12s %12s  %s\n", "rate/s", "n", "fail", "p50 us", "p99 us", "late p99 us", "pass")
	rows := append([]phaseStats{*res.Ref}, res.Steps...)
	for _, s := range rows {
		fmt.Fprintf(&b, "  %10.1f %7d %6d %12.0f %12.0f %12.0f  %v\n",
			s.Rate, s.N, s.Fails.total(), s.P50Us, s.P99Us, s.LateP99Us, s.Pass)
	}
	fmt.Fprintf(&b, "  highest passing rate: %.1f/s", res.MaxQPS)
	return b.String()
}

// checkSamples compares sampled route responses against route.RouteWire
// on a locally reproduced baseline array: the served replicas start
// from the sequential baseline and serve-bin never commits, so every
// response must equal a local evaluation.
func checkSamples(circs []*circuit.Circuit, wires []genWire, phases []phaseStats, corrupt bool) error {
	params := route.DefaultParams()
	views := make([]route.ArrayView, len(circs))
	for i, c := range circs {
		_, arr := route.Sequential(c, params)
		views[i] = route.ArrayView{A: arr}
	}
	n := 0
	for _, p := range phases {
		for _, s := range p.Samples {
			if corrupt && n == 0 {
				s.Cost++
			}
			n++
			w := wires[s.Wire]
			cw := circuit.Wire{ID: w.ID, Pins: points(w.Pins)}
			ev := route.RouteWire(views[w.C], &cw, params)
			if ev.Cost != s.Cost || ev.Path.Len() != s.Cells {
				return fmt.Errorf("%s wire %d: served cost %d cells %d, local cost %d cells %d",
					circs[w.C].Name, w.ID, s.Cost, s.Cells, ev.Cost, ev.Path.Len())
			}
		}
	}
	if n == 0 {
		return errors.New("no responses sampled")
	}
	return nil
}

// binLayers is the serve-bin part of a traced run: the reference phase
// untraced on a default daemon, then traced (traced frames against a
// -trace daemon), plus the in-process service-core and wire probes.
func binLayers(ctx context.Context, o *options, r *report, refSecs float64) error {
	circs, names, wires, err := binCircuits()
	if err != nil {
		return err
	}
	run := func(traced bool, extra ...string) (*phaseStats, error) {
		d, err := startDaemon(o.locusd, extra...)
		if err != nil {
			return nil, err
		}
		res, genErr := runGeneratorProcess(ctx, binSpec(o, names, wires, d.binAddr, refSecs, traced))
		r.check(fmt.Sprintf("locusd drained cleanly (trace=%v)", traced), d.stop())
		if genErr != nil {
			return nil, genErr
		}
		return res.Ref, nil
	}
	plain, err := run(false)
	if err != nil {
		return err
	}
	tr, err := run(true, "-trace")
	if err != nil {
		return err
	}
	phases := []phaseStats{*plain, *tr}
	r.check("serve-bin responses equal route.RouteWire", checkSamples(circs, wires, phases, o.fault.corruptCost))
	attempted, failed := countPhases(phases)
	r.count(attempted, failed)
	if len(tr.StageMeanUs) != int(reqtrace.NumStages) {
		return errors.New("traced responses carried no stage breakdown")
	}
	stage := func(s reqtrace.Stage) float64 { return tr.StageMeanUs[s] }
	overhead := tr.P50Us - plain.P50Us
	layer := r.layer
	layer("locusd.queue_us", stage(reqtrace.StageQueue), "us", tr.OK)
	layer("locusd.batch_us", stage(reqtrace.StageBatch), "us", tr.OK)
	layer("locusd.batch_size", tr.BatchMean, "count", tr.OK)
	layer("transport.bin_us", tr.TransportP50, "us", tr.OK)
	layer("client.lag_us", plain.LagP99Us, "us", plain.LagN)
	layer("reqtrace.overhead_us", overhead, "us", tr.OK)

	qps, n, err := inprocQPS(circs, wires, refSecs/2)
	if err != nil {
		return err
	}
	layer("locusd.inproc_qps", qps, "1/s", n)
	if err := wireLayers(r, circs, wires, plain.Samples); err != nil {
		return err
	}

	// The section 5.1.3 view of one route read: mean self time per
	// layer, which sums to the mean end-to-end latency by construction.
	rows := []layerRow{
		{"client (due->send: lag + connection wait)", tr.SendMeanUs},
		{"transport.bin (Do - server stages)", tr.TransportMean},
	}
	for s := reqtrace.Stage(0); s < reqtrace.NumStages; s++ {
		rows = append(rows, layerRow{"locusd." + s.String(), stage(s)})
	}
	r.tables = append(r.tables, layerTable(
		fmt.Sprintf("serve-bin per-layer self time (traced reference phase, %.0f/s, n=%d)", binRefRate, tr.OK),
		tr.MeanUs, "us", rows,
		fmt.Sprintf("tracing overhead: p50 %.1f us traced vs %.1f us untraced = %+.1f us", tr.P50Us, plain.P50Us, overhead)))
	return nil
}

// inprocQPS drives locusd.Server.Route in process from 64 goroutines
// for secs seconds and returns the completed routes per second.
func inprocQPS(circs []*circuit.Circuit, wires []genWire, secs float64) (float64, int, error) {
	srv, err := locusd.New(locusd.Config{}, circs...)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	reqs := make([]locusd.RouteRequest, len(wires))
	for i, w := range wires {
		reqs[i] = locusd.RouteRequest{Circuit: circs[w.C].Name, Wire: circuit.Wire{ID: w.ID, Pins: points(w.Pins)}}
	}
	var done atomic.Int64
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; time.Now().Before(deadline); i += 64 {
				if _, err := srv.Route(context.Background(), reqs[i%len(reqs)]); err == nil {
					done.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	n := done.Load()
	return float64(n) / time.Since(start).Seconds(), int(n), nil
}

// wireLayers times the binary protocol's request encoder on the
// workload's own requests and its response decoder on the responses the
// run sampled.
func wireLayers(r *report, circs []*circuit.Circuit, wires []genWire, samples []sample) error {
	reqs := make([]wire.Request, len(wires))
	var reqBytes, respBytes int
	var buf []byte
	var err error
	for i, w := range wires {
		reqs[i] = wire.Request{Circuit: circs[w.C].Name, WireID: w.ID, Pins: points(w.Pins)}
		if buf, err = wire.AppendRequestFrame(buf[:0], &reqs[i]); err != nil {
			return err
		}
		reqBytes += len(buf)
	}
	payloads := make([][]byte, len(samples))
	for i, s := range samples {
		resp := &wire.Response{WireID: wires[s.Wire].ID, Cost: s.Cost, PathCells: s.Cells, BatchSize: 1}
		if payloads[i], err = wire.AppendResponse(nil, resp); err != nil {
			return err
		}
		if buf, err = wire.AppendResponseFrame(buf[:0], resp); err != nil {
			return err
		}
		respBytes += len(buf)
	}
	if len(payloads) == 0 {
		return errors.New("no responses sampled")
	}
	const rounds = 50
	var enc, dec dist
	for k := 0; k < rounds; k++ {
		t0 := time.Now()
		for i := range reqs {
			buf, _ = wire.AppendRequestFrame(buf[:0], &reqs[i])
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(len(reqs)))
		t0 = time.Now()
		for _, p := range payloads {
			if _, err := wire.DecodeResponse(p); err != nil {
				return err
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(len(payloads)))
	}
	r.layer("wire.encode_ns", enc.median(), "ns", rounds*len(reqs))
	r.layer("wire.decode_ns", dec.median(), "ns", rounds*len(payloads))
	r.layer("wire.req_bytes", float64(reqBytes)/float64(len(reqs)), "B", len(reqs))
	r.layer("wire.resp_bytes", float64(respBytes)/float64(len(payloads)), "B", len(payloads))
	return nil
}

// layerRow is one layer's mean self time.
type layerRow struct {
	Name string
	Self float64
}

// layerTable renders self times and their share of the end-to-end
// time, with the unattributed remainder and a footer.
func layerTable(title string, total float64, unit string, rows []layerRow, footer string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  %-52s %12s %7s\n", title, "layer", "self "+unit, "share")
	sorted := append([]layerRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Self > sorted[j].Self })
	sum := 0.0
	for _, row := range sorted {
		sum += row.Self
		fmt.Fprintf(&b, "  %-52s %12.3f %6.1f%%\n", row.Name, row.Self, 100*row.Self/total)
	}
	fmt.Fprintf(&b, "  %-52s %12.3f %6.1f%%\n", "(unattributed)", total-sum, 100*(total-sum)/total)
	fmt.Fprintf(&b, "  %-52s %12.3f %6.1f%%\n  %s", "end to end", total, 100.0, footer)
	return b.String()
}
