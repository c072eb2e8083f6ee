// Command gpaserve runs the long-lived GPApriori mining daemon: a
// dataset registry loaded once at startup, an admission-controlled job
// manager, a fingerprint-keyed result cache, and an HTTP/JSON API for
// submitting jobs, long-polling status, streaming per-generation
// results, and cancelling work.
//
// Example:
//
//	gpaserve -listen 127.0.0.1:8080 \
//	    -dataset chess=gen:chess:1.0 \
//	    -dataset toy=quest:60:400:8:7 \
//	    -mem-mb 512 -workers 4 -cache-mb 64 -state-dir /var/lib/gpaserve
//
// On SIGTERM or SIGINT the daemon drains: new submissions are refused
// with 503, running jobs are checkpointed and cancelled, queued jobs
// are journaled to the state directory, and the process exits 0. A
// restart with the same -state-dir resumes the journaled jobs from
// their checkpoints. A drain whose journal cannot be written still
// exits 0 — the loss is reported explicitly in the log rather than
// traded for a hang or a panic.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpapriori"
	"gpapriori/internal/peer"
	"gpapriori/internal/server"
)

// datasetFlags collects repeated -dataset name=spec arguments.
type datasetFlags []string

func (d *datasetFlags) String() string { return strings.Join(*d, ",") }

func (d *datasetFlags) Set(v string) error {
	*d = append(*d, v)
	return nil
}

// options is run's full configuration, mirroring the flag surface —
// one struct so tests state only what they care about and new knobs
// never ripple through call sites.
type options struct {
	listen   string
	datasets []string
	queue    int
	memMB    int
	workers  int
	cacheMB  int
	stateDir string
	portFile string
	drainSec float64

	// Transport hardening (see server.OverloadConfig and the listener
	// timeouts below).
	readHeaderTimeout  time.Duration
	idleTimeout        time.Duration
	handlerTimeout     time.Duration
	streamWriteTimeout time.Duration
	maxBodyKB          int

	// Latency-aware admission (see gpapriori.JobManagerConfig).
	sojournTarget   time.Duration
	sojournInterval time.Duration

	// Cluster mode (see internal/peer): a static peer list turns the
	// daemon into one node of a consistent-hash placement ring.
	peers         string
	self          string
	replication   int
	probeInterval time.Duration
	probeTimeout  time.Duration
	suspectAfter  int
	recoverAfter  int
}

// defaultOptions is the production default for every knob — what the
// flags advertise and what tests start from.
func defaultOptions() options {
	return options{
		listen:             "127.0.0.1:0",
		memMB:              256,
		cacheMB:            32,
		drainSec:           30,
		readHeaderTimeout:  5 * time.Second,
		idleTimeout:        2 * time.Minute,
		handlerTimeout:     server.DefaultHandlerTimeout,
		streamWriteTimeout: server.DefaultStreamWriteTimeout,
		sojournTarget:      2 * time.Second,
	}
}

// maxListenerTimeout bounds the configurable listener timeouts; past
// this a "timeout" defends nothing.
const maxListenerTimeout = 10 * time.Minute

func main() {
	var datasets datasetFlags
	opts := defaultOptions()
	flag.StringVar(&opts.listen, "listen", opts.listen, "host:port to listen on (port 0 picks a free port)")
	flag.IntVar(&opts.queue, "queue", opts.queue, "admission queue limit (0 = default)")
	flag.IntVar(&opts.memMB, "mem-mb", opts.memMB, "modeled memory budget for admitted jobs, in MiB")
	flag.IntVar(&opts.workers, "workers", opts.workers, "concurrently running jobs (0 = default)")
	flag.IntVar(&opts.cacheMB, "cache-mb", opts.cacheMB, "result cache budget, in MiB (0 disables)")
	flag.StringVar(&opts.stateDir, "state-dir", opts.stateDir, "directory for checkpoints and the drain journal (empty = stateless)")
	flag.StringVar(&opts.portFile, "port-file", opts.portFile, "write the bound listen address to this file once serving")
	flag.Float64Var(&opts.drainSec, "drain-timeout", opts.drainSec, "seconds to wait for drain on shutdown")
	flag.DurationVar(&opts.readHeaderTimeout, "read-header-timeout", opts.readHeaderTimeout, "time a client may take to send request headers")
	flag.DurationVar(&opts.idleTimeout, "idle-timeout", opts.idleTimeout, "keep-alive idle connection timeout")
	flag.DurationVar(&opts.handlerTimeout, "handler-timeout", opts.handlerTimeout, "deadline for non-streaming handlers, including reading the body")
	flag.DurationVar(&opts.streamWriteTimeout, "stream-write-timeout", opts.streamWriteTimeout, "per-write deadline on /stream; a slower subscriber is evicted")
	flag.IntVar(&opts.maxBodyKB, "max-body-kb", opts.maxBodyKB, "JSON request body limit in KiB (0 = server default 1024)")
	flag.DurationVar(&opts.sojournTarget, "sojourn-target", opts.sojournTarget, "queue sojourn target for latency-aware admission (0 disables shedding)")
	flag.DurationVar(&opts.sojournInterval, "sojourn-interval", opts.sojournInterval, "sustain window before the sojourn controller sheds (0 = 4x target)")
	flag.Var(&datasets, "dataset", "name=spec dataset to register (repeatable); spec is file:<path>, gen:<name>:<scale>, or quest:<items>:<trans>:<avglen>:<seed>")
	flag.StringVar(&opts.peers, "peers", opts.peers, "comma-separated base URLs of every cluster peer, including this one (empty = single-node)")
	flag.StringVar(&opts.self, "self", opts.self, "this daemon's own base URL as it appears in -peers (required with -peers)")
	flag.IntVar(&opts.replication, "replication", opts.replication, "replicas per dataset on the placement ring (0 = default 2)")
	flag.DurationVar(&opts.probeInterval, "probe-interval", opts.probeInterval, "peer health probe period (0 = default 1s)")
	flag.DurationVar(&opts.probeTimeout, "probe-timeout", opts.probeTimeout, "per-probe HTTP timeout (0 = default 2s)")
	flag.IntVar(&opts.suspectAfter, "suspect-after", opts.suspectAfter, "consecutive probe failures before a peer is suspected (0 = default 3)")
	flag.IntVar(&opts.recoverAfter, "recover-after", opts.recoverAfter, "consecutive probe successes before a suspected peer recovers (0 = default 2)")
	flag.Parse()
	opts.datasets = datasets

	if err := run(os.Stderr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "gpaserve: "+err.Error())
		os.Exit(1)
	}
}

func run(logw io.Writer, opts options) error {
	if len(opts.datasets) == 0 {
		return fmt.Errorf("at least one -dataset name=spec is required")
	}
	if opts.readHeaderTimeout <= 0 || opts.readHeaderTimeout > maxListenerTimeout {
		return fmt.Errorf("-read-header-timeout %v must be in (0,%v]", opts.readHeaderTimeout, maxListenerTimeout)
	}
	if opts.idleTimeout <= 0 || opts.idleTimeout > maxListenerTimeout {
		return fmt.Errorf("-idle-timeout %v must be in (0,%v]", opts.idleTimeout, maxListenerTimeout)
	}
	if opts.maxBodyKB < 0 {
		return fmt.Errorf("-max-body-kb %d must be >= 0", opts.maxBodyKB)
	}
	var cluster peer.Config
	if opts.peers != "" {
		for _, p := range strings.Split(opts.peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				cluster.Peers = append(cluster.Peers, p)
			}
		}
		cluster.Self = opts.self
		cluster.Replication = opts.replication
		cluster.ProbeInterval = opts.probeInterval
		cluster.ProbeTimeout = opts.probeTimeout
		cluster.SuspectAfter = opts.suspectAfter
		cluster.RecoverAfter = opts.recoverAfter
		cluster.Log = logw
		if err := cluster.Validate(); err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
	} else if opts.self != "" {
		return fmt.Errorf("-self requires -peers")
	}
	reg := server.NewRegistry()
	for _, d := range opts.datasets {
		name, spec, ok := strings.Cut(d, "=")
		if !ok {
			return fmt.Errorf("-dataset %q: want name=spec", d)
		}
		entry, err := reg.AddSpec(name, spec)
		if err != nil {
			return fmt.Errorf("-dataset %q: %w", d, err)
		}
		info := entry.Info
		fmt.Fprintf(logw, "gpaserve: dataset %s: %d transactions, %d items, %dB per-job bitset footprint\n",
			info.Name, info.Transactions, info.NumItems, info.BitsetBytes)
	}

	srv, err := server.New(server.Config{
		Registry: reg,
		Jobs: gpapriori.JobManagerConfig{
			QueueLimit:      opts.queue,
			MemoryBudgetMB:  opts.memMB,
			Workers:         opts.workers,
			SojournTarget:   opts.sojournTarget,
			SojournInterval: opts.sojournInterval,
		},
		CacheBudgetBytes: int64(opts.cacheMB) << 20,
		StateDir:         opts.stateDir,
		Overload: server.OverloadConfig{
			HandlerTimeout:     opts.handlerTimeout,
			StreamWriteTimeout: opts.streamWriteTimeout,
			MaxBodyBytes:       int64(opts.maxBodyKB) << 10,
		},
		Cluster: cluster,
		Log:     logw,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	addr := ln.Addr().String()
	if opts.portFile != "" {
		if err := os.WriteFile(opts.portFile, []byte(addr+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(logw, "gpaserve: listening on %s\n", addr)
	if cluster.Enabled() {
		fmt.Fprintf(logw, "gpaserve: cluster mode: self=%s peers=%d replication=%d\n",
			peer.NormalizeURL(cluster.Self), len(cluster.Peers), srv.Replication())
	}

	// ReadHeaderTimeout defeats slowloris headers; IdleTimeout reclaims
	// abandoned keep-alives. Read/Write timeouts stay off on purpose:
	// they would kill long-polls and streams, whose lifetimes the
	// handlers bound themselves (wait_sec clamp, per-write deadlines).
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: opts.readHeaderTimeout,
		IdleTimeout:       opts.idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(logw, "gpaserve: draining")

	drainCtx, cancel := context.WithTimeout(context.Background(),
		time.Duration(opts.drainSec*float64(time.Second)))
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	fmt.Fprintln(logw, "gpaserve: drained, bye")
	return nil
}
