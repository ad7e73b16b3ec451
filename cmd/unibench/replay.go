package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/lrindex"
	"github.com/unidetect/unidetect/internal/table"
)

// The traced run replays the workload's inputs through each layer's
// public entry points, one call at a time and in pipeline order, with a
// span around every call. Serial calls make the layers' self times add
// up: the layer sums reconcile against one core detect of the same
// inputs on a single-worker copy of the model, and what is left over is
// core's own work (fingerprints, cache inserts, dedup, scheduling).
//
// Every sub-replay that detects loads its own copy of the model from the
// saved bytes, so no replay warms a cache another one measures.

// replayJobs bounds how many units the job tier replays.
const replayJobs = 8

// replay runs every sub-replay over units and returns the layer metrics.
// hot says the daemon serves the units from a warm cache, so the serving
// replay compares against a warm copy.
func replay(b *bench, units []unit, hot bool) (map[string]float64, error) {
	r := &replayer{b: b, tr: b.tr, out: map[string]float64{}}
	passes := []func([]unit) error{
		r.pipeline,
		r.scan,
		func(us []unit) error { return r.serve(us, hot) },
		r.jobs,
	}
	for _, pass := range passes {
		settle()
		if err := pass(units); err != nil {
			return nil, err
		}
	}
	r.summarize()
	return r.out, nil
}

type replayer struct {
	b   *bench
	tr  *tracer
	out map[string]float64

	parseBytes int64
	stream     bool
}

// parse reads a unit the way the path that serves it does: a whole table
// for /v1/detect inputs, 256-row chunks for a job's stream. For a stream
// it also returns the whole table the end-of-stream detectors see.
func parse(u unit) (whole *table.Table, chunks []*table.Table, err error) {
	if !u.stream {
		t, err := colstore.ReadCSVAll(u.name, bytes.NewReader(u.csv))
		return t, []*table.Table{t}, err
	}
	src, err := colstore.NewCSVSource(u.name, bytes.NewReader(u.csv), colstore.Options{ChunkRows: jobChunkRows})
	if err != nil {
		return nil, nil, err
	}
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		chunks = append(chunks, c.Table(u.name))
	}
	return nil, chunks, nil
}

// concat joins chunk tables row-wise into one table.
func concat(name string, chunks []*table.Table) *table.Table {
	cols := make([]*table.Column, chunks[0].NumCols())
	for j := range cols {
		var vals []string
		for _, c := range chunks {
			vals = append(vals, c.Columns[j].Values...)
		}
		cols[j] = table.NewColumn(chunks[0].Columns[j].Name, vals)
	}
	return table.MustNew(name, cols...)
}

func inferTypes(tables []*table.Table) {
	for _, t := range tables {
		for _, c := range t.Columns {
			c.Type()
		}
	}
}

// pipeline times, for each unit in turn, parse → type inference → each
// detector's measurement → LR lookups → ranking, call by call, and then
// the same unit through the public detect path of a single-worker copy
// of the model: once cold, the time the layers reconcile against, and
// once more on the cache-hit path. Timing the two side by side per unit
// exposes both to the same machine conditions.
func (r *replayer) pipeline(units []unit) error {
	m := r.b.orc.model
	dets := detectors.All(m.Config, detectors.Options{})
	env := &core.Env{Index: r.b.orc.index}
	ix := core.BuildIndex(m)
	sc := core.NewScratch()
	serial, err := r.b.orc.copyModel(1)
	if err != nil {
		return err
	}
	serial.Warm()
	var outcomes [lrindex.NumOutcomes]int
	lookups, findings := 0, 0
	for i, u := range units {
		r.stream = u.stream
		root := r.tr.begin("replay.layers", 0, i)
		var whole *table.Table
		var chunks []*table.Table
		r.tr.timed("colstore.parse", root, i, func() { whole, chunks, err = parse(u) })
		if err != nil {
			return fmt.Errorf("replay: parse %s: %w", u.name, err)
		}
		r.parseBytes += int64(len(u.csv))
		if whole == nil {
			whole = concat(u.name, chunks)
		}
		r.tr.timed("table.infer", root, i, func() {
			inferTypes(chunks)
			if u.stream {
				inferTypes([]*table.Table{whole})
			}
		})
		type measured struct {
			det core.Detector
			ms  []core.Measurement
		}
		var all []measured
		for _, det := range dets {
			cls := det.Class().String()
			id := r.tr.begin("detectors."+cls+".measure", root, i)
			var ms []core.Measurement
			if cm, ok := det.(core.ColumnMeasurer); ok {
				for _, t := range chunks {
					for pos := range t.Columns {
						ms = append(ms, cm.MeasureColumn(t, pos, env, sc)...)
					}
				}
			} else {
				ms = det.Measure(whole, env)
			}
			r.tr.end(id)
			r.out["detectors."+cls+".measurements"] += float64(len(ms))
			all = append(all, measured{det, ms})
		}
		var fs []core.Finding
		r.tr.timed("lrindex.lr", root, i, func() {
			for _, dm := range all {
				cls, q := dm.det.Class(), dm.det.Quantizer()
				for _, meas := range dm.ms {
					if !meas.Valid {
						continue
					}
					lr, support, oc := ix.LR(int(cls), meas.Key, q.Bin(meas.Theta1), q.Bin(meas.Theta2))
					lookups++
					outcomes[oc]++
					if lr <= m.Config.Alpha {
						fs = append(fs, core.Finding{Class: cls, Table: u.name, Column: meas.Column,
							Rows: meas.Rows, Values: meas.Values, LR: lr, Support: support, Detail: meas.Detail})
					}
				}
			}
		})
		r.tr.timed("core.sort", root, i, func() { core.SortFindings(fs) })
		findings += len(fs)
		r.tr.end(root)

		root = r.tr.begin("replay.detect", 0, i)
		for _, name := range []string{"core.detect", "core.detect_hit"} {
			if err := r.runDetect(serial, u, name, root, i); err != nil {
				return fmt.Errorf("replay: detect %s: %w", u.name, err)
			}
		}
		r.tr.end(root)
	}
	r.out["lrindex.lookups"] = float64(lookups)
	for o := lrindex.Outcome(0); o < lrindex.NumOutcomes; o++ {
		r.out["lrindex.outcome."+o.String()] = float64(outcomes[o])
	}
	r.out["core.findings"] = float64(findings)
	return nil
}

// runDetect sends one unit through a model's public detect path: Detect
// on a freshly parsed table, or DetectSource over the chunked stream.
func (r *replayer) runDetect(m *unidetect.Model, u unit, name string, parent, req int) error {
	if u.stream {
		src, err := colstore.NewCSVSource(u.name, bytes.NewReader(u.csv), colstore.Options{ChunkRows: jobChunkRows})
		if err != nil {
			return err
		}
		id := r.tr.begin(name, parent, req)
		_, err = m.DetectSource(r.b.ctx, src)
		r.tr.end(id)
		return err
	}
	t, err := colstore.ReadCSVAll(u.name, bytes.NewReader(u.csv))
	if err != nil {
		return err
	}
	id := r.tr.begin(name, parent, req)
	m.Detect(r.b.ctx, t)
	r.tr.end(id)
	return nil
}

// scan times the resumable scan a job runs: Fold per 256-row chunk, Save
// after every fold (the job tier's checkpoint), Finish at end of stream.
func (r *replayer) scan(units []unit) error {
	m, err := r.b.orc.copyModel(1)
	if err != nil {
		return err
	}
	m.Warm()
	var saved int64
	var buf bytes.Buffer
	for i, u := range units {
		root := r.tr.begin("replay.scan", 0, i)
		src, err := colstore.NewCSVSource(u.name, bytes.NewReader(u.csv), colstore.Options{ChunkRows: jobChunkRows})
		if err != nil {
			return err
		}
		s := m.NewSourceScan(u.name)
		for {
			c, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("replay: scan %s: %w", u.name, err)
			}
			r.tr.timed("core.scan.fold", root, i, func() { s.Fold(c) })
			buf.Reset()
			r.tr.timed("core.scan.save", root, i, func() { err = s.Save(&buf) })
			if err != nil {
				return fmt.Errorf("replay: save %s: %w", u.name, err)
			}
			saved += int64(buf.Len())
		}
		r.tr.timed("core.scan.finish", root, i, func() { _, err = s.Finish(src.ColumnNames()) })
		if err != nil {
			return fmt.Errorf("replay: finish %s: %w", u.name, err)
		}
		r.tr.end(root)
	}
	r.out["core.scan.checkpoint_bytes_per_input_byte"] = float64(saved) / float64(r.parseBytes)
	return nil
}

// serve times each unit through POST /v1/detect, and the same parse and
// detect in process on a copy of the model that is configured like the
// daemon's and holds the same cache state — warm first when the daemon
// serves the units warm; the handler time left over is the serving
// layer's own (routing, middleware, JSON).
func (r *replayer) serve(units []unit, warm bool) error {
	m, err := r.b.orc.copyModel(0)
	if err != nil {
		return err
	}
	m.Warm()
	if warm {
		for _, u := range units {
			if t, err := colstore.ReadCSVAll(u.name, bytes.NewReader(u.csv)); err == nil {
				m.Detect(r.b.ctx, t)
			}
		}
	}
	for i, u := range units {
		root := r.tr.begin("replay.serving", 0, i)
		var t *table.Table
		r.tr.timed("serving.ref_parse", root, i, func() { t, err = colstore.ReadCSVAll(u.name, bytes.NewReader(u.csv)) })
		if err != nil {
			return err
		}
		r.tr.timed("serving.ref_detect", root, i, func() { m.Detect(r.b.ctx, t) })
		id := r.tr.begin("serving.request", root, i)
		code, _, err := post(r.b.ctx, r.b.client, r.b.st.detectURL(u.name), "text/csv", u.csv, id)
		r.tr.end(id)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("replay: POST %s: status %d: %v", u.name, code, err)
		}
		r.tr.end(root)
	}
	return nil
}

// jobs times up to replayJobs units through the job tier one at a time:
// the submit round trip, then from its return until a poll first sees
// the job out of the queue and until a poll sees it finished. The client
// polls back to back, so the times resolve to one poll round trip.
func (r *replayer) jobs(units []unit) error {
	var submit, wait, run []float64
	for i, u := range units[:min(len(units), replayJobs)] {
		id := r.tr.begin("jobstore.job", 0, i)
		_, tm, err := r.b.st.runJob(r.b.ctx, r.b.client, u.name, u.csv, 0)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("replay: job %s: %w", u.name, err)
		}
		submit = append(submit, tm.submit.Seconds())
		wait = append(wait, (tm.started - tm.submit).Seconds())
		run = append(run, (tm.done - tm.submit).Seconds())
	}
	r.out["jobstore.submit_s"] = median(submit)
	r.out["jobstore.queue_wait_s"] = median(wait)
	r.out["jobstore.run_s"] = median(run)
	return nil
}

// summarize turns the replay's spans into layer self times.
func (r *replayer) summarize() {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	sum := map[string]float64{}
	byID := map[int]span{}
	for i, s := range spans {
		sum[s.Name] += self[i]
		byID[s.ID] = s
	}
	for _, name := range []string{"colstore.parse", "table.infer", "lrindex.lr", "core.sort",
		"core.detect", "core.detect_hit", "core.scan.fold", "core.scan.save", "core.scan.finish"} {
		r.out[name+"_s"] = sum[name]
	}
	layers := sum["table.infer"] + sum["lrindex.lr"] + sum["core.sort"]
	for _, cls := range []string{"spelling", "outlier", "uniqueness", "fd", "fd-synthesis"} {
		r.out["detectors."+cls+".measure_s"] = sum["detectors."+cls+".measure"]
		layers += sum["detectors."+cls+".measure"]
	}
	if r.stream {
		// DetectSource parses as it scans; Detect is handed a parsed table.
		layers += sum["colstore.parse"]
	}
	r.out["core.self_s"] = sum["core.detect"] - layers
	r.out["trace.residual_ratio"] = r.out["core.self_s"] / sum["core.detect"]
	r.out["colstore.parse_mb_per_s"] = float64(r.parseBytes) / 1e6 / sum["colstore.parse"]

	// Handler spans of the replay's requests, against the in-process
	// parse and detect of the same unit.
	var handler, own []float64
	refs := map[int]float64{} // replay.serving root → ref parse + ref detect
	for i, s := range spans {
		if s.Name == "serving.ref_parse" || s.Name == "serving.ref_detect" {
			refs[s.Parent] += self[i]
		}
	}
	for i, s := range spans {
		parent, ok := byID[s.Parent]
		if s.Name != "serving.handler" || !ok || parent.Name != "serving.request" {
			continue
		}
		d := self[i]
		handler = append(handler, d)
		own = append(own, d-refs[parent.Parent])
	}
	r.out["serving.handler_s"] = median(handler)
	r.out["serving.self_s"] = median(own)
}
