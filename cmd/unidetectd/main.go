// Command unidetectd serves Uni-Detect over HTTP: the "software feature"
// deployment of the paper's introduction — an error-detection service that
// tools like spreadsheets can call in the background.
//
//	unidetectd -model model.bin -addr :8080
//	unidetectd -tables 8000 -addr :8080        (train a synthetic model at startup)
//
// Endpoints:
//
//	POST /v1/detect?repair=1   body: CSV        -> JSON findings
//	POST /v1/batch             body: JSON batch -> JSON findings per table
//	POST /v1/profile           body: CSV        -> JSON column profiles
//	POST /v1/reload            body: JSON spec  -> swap in a new model without downtime
//	POST /v1/jobs?name=t       body: CSV/NDJSON/.ucol -> 202 + job id (with -jobs-dir)
//	GET  /v1/jobs/{id}                          -> NDJSON findings stream / status
//	GET  /healthz                               -> 200 once the model is ready
//	GET  /statusz                               -> JSON request accounting
//	GET  /metrics                               -> Prometheus text exposition
//
// With -tenants the daemon is multi-tenant: every /v1/* request needs an
// API key (Authorization: Bearer or X-API-Key) registered in the tenant
// file, and per-tenant token-bucket quotas answer 429 + Retry-After.
// With -jobs-dir huge uploads go through the crash-safe async job tier:
// POST /v1/jobs returns immediately and a killed daemon runs each
// unfinished job again from the top of its spool after restart.
//
// With -debug-addr a second listener additionally serves /metrics and the
// net/http/pprof endpoints (DESIGN.md §9), so profiling can stay bound to
// localhost while the service port faces traffic.
//
// The daemon runs under an explicit failure model (DESIGN.md §8): every
// request gets a deadline, handler panics become 500s without killing
// the process, load beyond -max-inflight is shed with 429 + Retry-After,
// and SIGINT/SIGTERM drain in-flight requests before exit. The -chaos-*
// flags inject deterministic faults into request handling, for drills.
// The serving implementation lives in internal/serving; this command is
// the flag-parsing shell around it.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/serving"
	"github.com/unidetect/unidetect/internal/tenants"
)

func main() {
	modelPath := flag.String("model", "", "trained model path (empty: train a synthetic model at startup)")
	tables := flag.Int("tables", 8000, "synthetic corpus size when no -model is given")
	addr := flag.String("addr", ":8080", "listen address")
	addrFile := flag.String("addr-file", "", "write the bound listen address to this file (for :0 ephemeral ports)")
	reqTimeout := flag.Duration("req-timeout", 30*time.Second, "per-request handler deadline (0 disables)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown budget for in-flight requests")
	maxInFlight := flag.Int("max-inflight", 64, "concurrent requests before load shedding with 429")
	maxBody := flag.Int64("max-body", 32<<20, "request body size limit in bytes (413 beyond)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long /v1/batch holds a batch open to coalesce concurrent requests (0 disables)")
	tenantsPath := flag.String("tenants", "", "tenant registry file; enables API-key auth and per-tenant quotas")
	jobsDir := flag.String("jobs-dir", "", "async job spool directory; enables POST /v1/jobs")
	jobWorkers := flag.Int("job-workers", 2, "async job scan workers")
	jobChunkRows := flag.Int("job-chunk-rows", 0, "rows per job scan chunk (0: library default)")
	jobChunkDelay := flag.Duration("job-chunk-delay", 0, "throttle between job scan chunks (chaos drills)")
	chaosSeed := flag.Int64("chaos-seed", 1, "deterministic seed for -chaos-p fault injection")
	chaosP := flag.Float64("chaos-p", 0, "per-request fault probability (0 disables injection)")
	debugAddr := flag.String("debug-addr", "", "optional second listener for /metrics and /debug/pprof (e.g. 127.0.0.1:6060)")
	flag.Parse()

	// One registry spans the whole process: startup training, per-request
	// prediction, and the serving middleware all land in the same /metrics.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg, 512)

	model, err := loadOrTrain(*modelPath, *tables, reg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := serving.Config{
		ReqTimeout:      *reqTimeout,
		DrainTimeout:    *drain,
		MaxInFlight:     *maxInFlight,
		MaxBody:         *maxBody,
		RetryAfter:      1,
		BatchWindow:     *batchWindow,
		SyntheticTables: *tables,
		Inject:          chaosInjector(*chaosSeed, *chaosP),
		Logf:            log.Printf,
		Obs:             reg,
		Tracer:          tracer,
		ChaosSeed:       *chaosSeed,
		JobsDir:         *jobsDir,
		JobWorkers:      *jobWorkers,
		JobChunkRows:    *jobChunkRows,
		JobChunkDelay:   *jobChunkDelay,
	}
	if *tenantsPath != "" {
		regy, err := tenants.Open(*tenantsPath, nil)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Tenants = regy
		log.Printf("unidetectd: %d tenants loaded from %s", len(regy.Tenants()), *tenantsPath)
	}
	s, err := serving.New(model, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		// Written via temp+rename so a watcher never reads a torn file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			log.Fatal(err)
		}
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dsrv := &http.Server{
			Handler:           serving.DebugHandler(reg),
			ReadHeaderTimeout: 10 * time.Second,
		}
		debugDone := make(chan error, 1)
		go func() { debugDone <- dsrv.Serve(dln) }()
		defer func() {
			_ = dsrv.Close()
			<-debugDone
		}()
		log.Printf("unidetectd debug listener on %s", dln.Addr())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("unidetectd listening on %s", ln.Addr())
	if err := serving.Serve(ctx, srv, ln, *drain, log.Printf); err != nil {
		log.Fatal(err)
	}
	log.Printf("unidetectd: drained cleanly")
}

// chaosInjector builds the -chaos-p fault schedule: errors, panics and
// latency on every protected endpoint, in a 4:1:2 ratio. Each fault class
// exercises a different protection layer (error path, panic recovery,
// timeout).
func chaosInjector(seed int64, p float64) *faultinject.Injector {
	if p <= 0 {
		return nil
	}
	return faultinject.New(seed,
		faultinject.Rule{Site: "unidetectd/*", P: p, Fault: faultinject.Fault{Err: errors.New("chaos: injected request fault")}},
		faultinject.Rule{Site: "unidetectd/*", P: p / 4, Fault: faultinject.Fault{Panic: "chaos: injected handler panic"}},
		faultinject.Rule{Site: "unidetectd/*", P: p / 2, Fault: faultinject.Fault{Delay: 5 * time.Millisecond}},
	)
}

func loadOrTrain(modelPath string, tables int, reg *obs.Registry) (*unidetect.Model, error) {
	opts := &unidetect.Options{Obs: reg}
	if modelPath != "" {
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		log.Printf("loading model from %s", modelPath)
		return unidetect.Load(f, opts)
	}
	log.Printf("training synthetic model on %d tables...", tables)
	bg := unidetect.SyntheticCorpus(unidetect.WebProfile, tables, 1)
	return unidetect.Train(context.Background(), bg, opts)
}
