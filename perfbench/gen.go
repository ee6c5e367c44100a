package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/geom"
	"locusroute/internal/reqtrace"
	"locusroute/internal/wire"
)

// This file is the load generator. It runs as its own process (this
// binary with PERFBENCH_GENERATOR=1), pinned to its own core, reading a
// genSpec as JSON on stdin and writing a genResult as JSON on stdout.
// It holds at most spec.Conns connections.

// genWire is one wire a request may name: the index of its circuit in
// the spec and the wire itself.
type genWire struct {
	C    int      `json:"c"`
	ID   int      `json:"id"`
	Pins [][2]int `json:"pins"`
}

// genSpec describes one load phase sequence.
type genSpec struct {
	// Mode is "bin-open" (open-loop route reads over the binary
	// protocol) or "http-mixed" (closed-loop durable mutations and route
	// reads over /v1 HTTP JSON).
	Mode     string    `json:"mode"`
	Addr     string    `json:"addr"`
	Seed     int64     `json:"seed"`
	Conns    int       `json:"conns"`
	Circuits []string  `json:"circuits"`
	Wires    []genWire `json:"wires"`

	// bin-open: a warmup, the reference phase, then (unless Ladder is
	// nil) the rate search.
	WarmN       int         `json:"warm_n,omitempty"`
	RefRate     float64     `json:"ref_rate,omitempty"`
	RefN        int         `json:"ref_n,omitempty"`
	Traced      bool        `json:"traced,omitempty"`
	SampleEvery int         `json:"sample_every,omitempty"`
	Ladder      *ladderSpec `json:"ladder,omitempty"`

	// http-mixed: Donors[c] holds pin lists for wires added to circuit c.
	Donors    [][][][2]int `json:"donors,omitempty"`
	Seconds   float64      `json:"seconds,omitempty"`
	ReadShare float64      `json:"read_share,omitempty"`
	// MaxOps stops each caller after this many operations (0 = run for
	// Seconds).
	MaxOps int `json:"max_ops,omitempty"`
}

// ladderSpec configures the highest-sustained-rate search: the rate
// doubles from 2x the reference rate until a rate misses, then Bisect
// geometric bisections narrow the bracket. A step passes when its p99
// (failed requests counting as misses) and the p99 of its second half
// both stay within LimitUs; a rate misses when two steps at it fail.
type ladderSpec struct {
	LimitUs  float64 `json:"limit_us"`
	MaxRate  float64 `json:"max_rate"`
	Bisect   int     `json:"bisect"`
	MinN     int     `json:"min_n"`
	StepSecs float64 `json:"step_secs"`
}

// fails counts failed requests by kind.
type fails struct {
	Shed      int `json:"shed"`
	Expired   int `json:"expired"`
	NonOK     int `json:"non_ok"`
	Timeout   int `json:"timeout"`
	Transport int `json:"transport"`
}

func (f fails) total() int { return f.Shed + f.Expired + f.NonOK + f.Timeout + f.Transport }

func (f *fails) add(g fails) {
	f.Shed += g.Shed
	f.Expired += g.Expired
	f.NonOK += g.NonOK
	f.Timeout += g.Timeout
	f.Transport += g.Transport
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	Rate   float64 `json:"rate"`
	N      int     `json:"n"`
	OK     int     `json:"ok"`
	Fails  fails   `json:"fails"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
	// MissP99Us and LateP99Us are the p99 with failures counted as
	// infinite, over the whole phase and over its second half.
	MissP99Us float64 `json:"miss_p99_us"`
	LateP99Us float64 `json:"late_p99_us"`
	Pass      bool    `json:"pass"`
	// LagP99Us is the generator's own lateness: how late a request left
	// when its connection was free before it was due.
	LagP99Us float64 `json:"lag_p99_us"`
	LagN     int     `json:"lag_n"`
	// SendMeanUs is the mean time from the due time to the send, which
	// includes waiting for a free connection.
	SendMeanUs float64 `json:"send_mean_us"`
	BatchMean  float64 `json:"batch_mean"`
	// Traced phases: mean per-stage server time, and the client's Do
	// time minus the server's stage sum (the transport's share).
	StageMeanUs   []float64 `json:"stage_mean_us,omitempty"`
	TransportP50  float64   `json:"transport_p50_us,omitempty"`
	TransportMean float64   `json:"transport_mean_us,omitempty"`
	Samples       []sample  `json:"samples,omitempty"`
}

// sample is one OK route response kept for the correctness check.
type sample struct {
	Wire  int   `json:"wire"` // index into genSpec.Wires
	Cost  int64 `json:"cost"`
	Cells int   `json:"cells"`
}

// genResult is the generator's output.
type genResult struct {
	Ref    *phaseStats  `json:"ref,omitempty"`
	Steps  []phaseStats `json:"steps,omitempty"`
	MaxQPS float64      `json:"max_qps,omitempty"`

	Mutations  *latStats `json:"mutations,omitempty"`
	Reads      *latStats `json:"reads,omitempty"`
	Acked      []int     `json:"acked,omitempty"` // acknowledged ops per circuit
	ElapsedSec float64   `json:"elapsed_s,omitempty"`
	MixedFails fails     `json:"mixed_fails"`
}

// latStats summarises a closed-loop latency sample.
type latStats struct {
	N      int     `json:"n"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MeanUs float64 `json:"mean_us"`
}

func summarize(d dist) *latStats {
	return &latStats{N: len(d), P50Us: d.pct(0.5), P90Us: d.pct(0.9), P99Us: d.pct(0.99), MeanUs: d.mean()}
}

// runGenerator is the generator process's entry point.
func runGenerator(in io.Reader, out io.Writer) error {
	var spec genSpec
	if err := json.NewDecoder(in).Decode(&spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	var res *genResult
	var err error
	switch spec.Mode {
	case "bin-open":
		res, err = runBinOpen(&spec)
	case "http-mixed":
		res, err = runHTTPMixed(&spec)
	default:
		err = fmt.Errorf("unknown mode %q", spec.Mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(out).Encode(res)
}

// requestTimeout bounds one exchange; a request still unanswered after
// it counts as a timeout failure.
const requestTimeout = 10 * time.Second

// binConn is one binary-protocol connection with per-request deadlines.
type binConn struct {
	addr string
	nc   net.Conn
	c    *wire.Conn
}

func (b *binConn) dial() error {
	nc, err := net.Dial("tcp", b.addr)
	if err != nil {
		return err
	}
	b.nc, b.c = nc, wire.NewConn(nc)
	return nil
}

func (b *binConn) do(req *wire.Request) (*wire.Response, error) {
	if b.c == nil {
		if err := b.dial(); err != nil {
			return nil, err
		}
	}
	if err := b.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return nil, err
	}
	resp, err := b.c.Do(req)
	if err != nil {
		b.nc.Close()
		b.c = nil
	}
	return resp, err
}

func (b *binConn) close() {
	if b.c != nil {
		b.nc.Close()
	}
}

// outcome is one open-loop request's record.
type outcome struct {
	ok        bool
	lat       time.Duration // response time minus due time
	send      time.Duration // send time minus due time
	slept     bool
	do        time.Duration // client exchange time
	stageNs   [reqtrace.NumStages]int64
	batch     int
	cost      int64
	cells     int
	fail      string
	wireIndex int
}

// runBinOpen runs the warmup, the reference phase and the rate ladder.
func runBinOpen(spec *genSpec) (*genResult, error) {
	conns := make([]*binConn, spec.Conns)
	for i := range conns {
		conns[i] = &binConn{addr: spec.Addr}
		if err := conns[i].dial(); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	reqs := make([]wire.Request, len(spec.Wires))
	for i, w := range spec.Wires {
		reqs[i] = wire.Request{Circuit: spec.Circuits[w.C], WireID: w.ID, Traced: spec.Traced}
		for _, p := range w.Pins {
			reqs[i].Pins = append(reqs[i].Pins, geom.Pt(p[0], p[1]))
		}
	}
	phase := func(rate float64, n int, limitUs float64, sampleEvery int) phaseStats {
		picks := make([]int, n)
		for i := range picks {
			picks[i] = rng.Intn(len(reqs))
		}
		return openPhase(conns, reqs, picks, rate, limitUs, sampleEvery)
	}
	if spec.WarmN > 0 {
		phase(spec.RefRate, spec.WarmN, math.Inf(1), 0)
	}
	limit := math.Inf(1)
	if spec.Ladder != nil {
		limit = spec.Ladder.LimitUs
	}
	ref := phase(spec.RefRate, spec.RefN, limit, spec.SampleEvery)
	res := &genResult{Ref: &ref}
	if spec.Ladder == nil {
		return res, nil
	}
	lad := spec.Ladder
	// A step that misses with most requests still within the limit is
	// run once more, and the rate passes if either try meets the limit:
	// near the knee one scheduling stall on a shared host backs the open
	// loop up past any limit, and the search should find the server's
	// knee, not the stall.
	step := func(rate float64) bool {
		n := int(math.Max(float64(lad.MinN), rate*lad.StepSecs))
		for try := 0; try < 2; try++ {
			st := phase(rate, n, lad.LimitUs, spec.SampleEvery*4)
			res.Steps = append(res.Steps, st)
			if st.Pass || st.P50Us > lad.LimitUs {
				return st.Pass
			}
		}
		return false
	}
	lo, hi := 0.0, 0.0
	if ref.Pass {
		lo = spec.RefRate
		for r := 2 * spec.RefRate; r <= lad.MaxRate; r *= 2 {
			if !step(r) {
				hi = r
				break
			}
			lo = r
		}
	}
	for k := 0; hi > 0 && lo > 0 && k < lad.Bisect; k++ {
		mid := math.Sqrt(lo * hi)
		if step(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.MaxQPS = lo
	return res, nil
}

// openPhase offers len(picks) requests at a fixed rate over conns. The
// arrival schedule is fixed up front; a request is timed from its due
// time, so waiting for a free connection counts against the server.
func openPhase(conns []*binConn, reqs []wire.Request, picks []int, rate, limitUs float64, sampleEvery int) phaseStats {
	n := len(picks)
	out := make([]outcome, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, bc := range conns {
		wg.Add(1)
		go func(bc *binConn) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				o := &out[i]
				o.wireIndex = picks[i]
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					o.slept = true
				}
				sent := time.Now()
				o.send = sent.Sub(due)
				resp, err := bc.do(&reqs[picks[i]])
				end := time.Now()
				o.lat, o.do = end.Sub(due), end.Sub(sent)
				classify(o, resp, err)
			}
		}(bc)
	}
	wg.Wait()
	return summarizeOpen(out, rate, limitUs, sampleEvery)
}

// classify records a binary response's outcome.
func classify(o *outcome, resp *wire.Response, err error) {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		o.fail = "timeout"
	case err != nil:
		o.fail = "transport"
	case resp.Status == wire.StatusShed:
		o.fail = "shed"
	case resp.Status == wire.StatusDeadline:
		o.fail = "expired"
	case resp.Status != wire.StatusOK:
		o.fail = "non_ok"
	default:
		o.ok = true
		o.batch, o.cost, o.cells = resp.BatchSize, resp.Cost, resp.PathCells
		for _, p := range resp.Stages {
			if int(p.Stage) < len(o.stageNs) {
				o.stageNs[p.Stage] += p.Ns
			}
		}
	}
}

func summarizeOpen(out []outcome, rate, limitUs float64, sampleEvery int) phaseStats {
	st := phaseStats{Rate: rate, N: len(out)}
	var lat, miss, late, lag, send, batch, transport dist
	stageSum := make([]float64, reqtrace.NumStages)
	traced := 0
	for i, o := range out {
		send = append(send, us(o.send))
		if o.slept {
			lag = append(lag, us(o.send)) // the connection was free: all lateness is the generator's
		}
		l := math.Inf(1)
		if o.ok {
			st.OK++
			l = us(o.lat)
			lat = append(lat, l)
			batch = append(batch, float64(o.batch))
			var sum int64
			for k, v := range o.stageNs {
				stageSum[k] += float64(v) / 1e3
				sum += v
			}
			if sum > 0 {
				traced++
				transport = append(transport, us(o.do)-float64(sum)/1e3)
			}
			if sampleEvery > 0 && i%sampleEvery == 0 {
				st.Samples = append(st.Samples, sample{Wire: o.wireIndex, Cost: o.cost, Cells: o.cells})
			}
		} else {
			switch o.fail {
			case "timeout":
				st.Fails.Timeout++
			case "transport":
				st.Fails.Transport++
			case "shed":
				st.Fails.Shed++
			case "expired":
				st.Fails.Expired++
			default:
				st.Fails.NonOK++
			}
		}
		miss = append(miss, l)
		if i >= len(out)/2 {
			late = append(late, l)
		}
	}
	st.P50Us, st.P90Us, st.P99Us, st.MeanUs = lat.pct(0.5), lat.pct(0.9), lat.pct(0.99), lat.mean()
	st.MissP99Us, st.LateP99Us = miss.pct(0.99), late.pct(0.99)
	st.Pass = st.MissP99Us <= limitUs && st.LateP99Us <= limitUs
	st.LagP99Us, st.LagN = lag.pct(0.99), len(lag)
	st.SendMeanUs = send.mean()
	st.BatchMean = batch.mean()
	if traced > 0 {
		st.StageMeanUs = make([]float64, len(stageSum))
		for k, v := range stageSum {
			st.StageMeanUs[k] = v / float64(traced)
		}
		st.TransportP50, st.TransportMean = transport.pct(0.5), transport.mean()
	}
	if math.IsInf(st.MissP99Us, 1) {
		st.MissP99Us = -1 // JSON has no infinity
	}
	if math.IsInf(st.LateP99Us, 1) {
		st.LateP99Us = -1
	}
	return st
}

// Mutation and route documents of the /v1 HTTP API.
type mutateDoc struct {
	Circuit string     `json:"circuit"`
	Ops     []mutateOp `json:"ops"`
}

type mutateOp struct {
	Op   string   `json:"op"`
	Wire int      `json:"wire"`
	Pins [][2]int `json:"pins,omitempty"`
}

type routeDoc struct {
	Circuit string   `json:"circuit"`
	Wire    int      `json:"wire"`
	Pins    [][2]int `json:"pins"`
}

// addedBase is the first wire id the mix adds; circuit wire ids stay
// below it.
const addedBase = 1 << 20

// mixCaller is one closed-loop caller's private state: the circuits it
// mutates and the wires it has added to each, so every op it sends is
// valid no matter how the other caller's ops interleave.
type mixCaller struct {
	rng    *rand.Rand
	owned  []int
	added  map[int][]int
	nextID int
}

// nextOp draws the caller's next operation: a read of any circuit's
// wire, or a write to an owned circuit (reroute 1/2, add 1/4, remove
// 1/4 of an added wire, an add when there is none).
func (m *mixCaller) nextOp(spec *genSpec, byCircuit [][]genWire) (circ int, read bool, op mutateOp) {
	if m.rng.Float64() < spec.ReadShare {
		w := spec.Wires[m.rng.Intn(len(spec.Wires))]
		return w.C, true, mutateOp{Wire: w.ID, Pins: w.Pins}
	}
	circ = m.owned[m.rng.Intn(len(m.owned))]
	u := m.rng.Float64()
	switch {
	case u < 0.5:
		ws := byCircuit[circ]
		return circ, false, mutateOp{Op: "reroute", Wire: ws[m.rng.Intn(len(ws))].ID}
	case u < 0.75 || len(m.added[circ]) == 0:
		donors := spec.Donors[circ]
		m.nextID++
		return circ, false, mutateOp{Op: "add", Wire: addedBase + m.nextID, Pins: donors[m.rng.Intn(len(donors))]}
	default:
		ids := m.added[circ]
		return circ, false, mutateOp{Op: "remove", Wire: ids[m.rng.Intn(len(ids))]}
	}
}

// ack updates the caller's wire bookkeeping after an acknowledged op.
func (m *mixCaller) ack(circ int, op mutateOp) {
	switch op.Op {
	case "add":
		m.added[circ] = append(m.added[circ], op.Wire)
	case "remove":
		ids := m.added[circ]
		for i, id := range ids {
			if id == op.Wire {
				m.added[circ] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
	}
}

// runHTTPMixed runs spec.Conns closed-loop callers, each on its own
// keep-alive connection.
func runHTTPMixed(spec *genSpec) (*genResult, error) {
	byCircuit := make([][]genWire, len(spec.Circuits))
	for _, w := range spec.Wires {
		byCircuit[w.C] = append(byCircuit[w.C], w)
	}
	type callerOut struct {
		mut, read dist
		acked     []int
		fails     fails
	}
	outs := make([]callerOut, spec.Conns)
	deadline := time.Now().Add(time.Duration(spec.Seconds * float64(time.Second)))
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < spec.Conns; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			co := &outs[k]
			co.acked = make([]int, len(spec.Circuits))
			m := &mixCaller{rng: rand.New(rand.NewSource(spec.Seed*1000 + int64(k))), added: map[int][]int{}}
			for c := k; c < len(spec.Circuits); c += spec.Conns {
				m.owned = append(m.owned, c)
			}
			client := &http.Client{
				Timeout:   requestTimeout,
				Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			}
			defer client.CloseIdleConnections()
			for n := 0; spec.MaxOps == 0 || n < spec.MaxOps; n++ {
				if spec.MaxOps == 0 && time.Now().After(deadline) {
					return
				}
				circ, read, op := m.nextOp(spec, byCircuit)
				var body any = mutateDoc{Circuit: spec.Circuits[circ], Ops: []mutateOp{op}}
				path := "/v1/mutate"
				if read {
					body, path = routeDoc{Circuit: spec.Circuits[circ], Wire: op.Wire, Pins: op.Pins}, "/v1/route"
				}
				t0 := time.Now()
				code, err := postJSON(client, "http://"+spec.Addr+path, body)
				lat := us(time.Since(t0))
				var ne net.Error
				switch {
				case errors.As(err, &ne) && ne.Timeout():
					co.fails.Timeout++
				case err != nil:
					co.fails.Transport++
				case code == http.StatusTooManyRequests:
					co.fails.Shed++
				case code == http.StatusGatewayTimeout:
					co.fails.Expired++
				case code != http.StatusOK:
					co.fails.NonOK++
				case read:
					co.read = append(co.read, lat)
				default:
					co.mut = append(co.mut, lat)
					co.acked[circ]++
					m.ack(circ, op)
				}
			}
		}(k)
	}
	wg.Wait()
	res := &genResult{ElapsedSec: time.Since(start).Seconds(), Acked: make([]int, len(spec.Circuits))}
	var mut, read dist
	for _, co := range outs {
		mut = append(mut, co.mut...)
		read = append(read, co.read...)
		res.MixedFails.add(co.fails)
		for c, n := range co.acked {
			res.Acked[c] += n
		}
	}
	res.Mutations, res.Reads = summarize(mut), summarize(read)
	return res, nil
}

// postJSON posts one JSON document and returns the status code, reading
// the body to the end so the connection is reused.
func postJSON(client *http.Client, url string, doc any) (int, error) {
	buf, err := json.Marshal(doc)
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}
