// Command routed serves the costdist solver as a long-running routing
// service: an HTTP JSON API over a pool of solve workers that pull from
// one bounded queue, each with its own scratch arena, and a
// content-addressed result cache. See
// internal/service for the endpoint semantics.
//
// Usage:
//
//	routed [-addr :8423] [-oracle cd] [-shards 0] [-queue 128] [-cache-mb 64] [-checkpoint-mb 128] [-flight-spans 0]
//
// SIGINT/SIGTERM shut the server down gracefully: in-flight jobs are
// cancelled between per-net solves and the listener drains.
//
// The server also exposes the net/http/pprof endpoints under
// /debug/pprof/, so a live instance can be CPU- or heap-profiled in
// place: go tool pprof http://localhost:8423/debug/pprof/profile
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"costdist"
	"costdist/internal/cliutil"
	"costdist/internal/service"
)

func main() {
	addr := flag.String("addr", ":8423", "listen address")
	oracleName := flag.String("oracle", "cd", "default oracle or driver for requests that omit one: "+strings.Join(costdist.MethodNames(), ", ")+" (l1 is an alias of rsmt)")
	shards := flag.Int("shards", 0, "solve workers, one scratch arena and cached grid each (0 = GOMAXPROCS, capped at 16)")
	queue := flag.Int("queue", 128, "bound of the one solve queue all workers pull from (a full queue answers 503)")
	cacheMB := flag.Int("cache-mb", 64, "result cache byte budget in MiB (0 disables caching)")
	checkpointMB := flag.Int("checkpoint-mb", 128, "warm-start checkpoint store byte budget in MiB (0 disables base_job warm starts)")
	flightSpans := flag.Int("flight-spans", 0, "flight-recorder ring capacity in telemetry spans, dumped at /debug/obs (0 = default)")
	flag.Parse()
	if flag.NArg() > 0 {
		cliutil.FatalUsage("routed", fmt.Errorf("unexpected arguments: %v", flag.Args()))
	}
	cliutil.MustMethod("routed", *oracleName) // exits 2 listing the valid set

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	checkpointBytes := int64(*checkpointMB) << 20
	if *checkpointMB <= 0 {
		checkpointBytes = -1
	}
	srv, err := service.New(service.Config{
		Shards:          *shards,
		QueueDepth:      *queue,
		CacheBytes:      cacheBytes,
		CheckpointBytes: checkpointBytes,
		DefaultMethod:   *oracleName,
		FlightSpans:     *flightSpans,
	})
	if err != nil {
		cliutil.Fatal("routed", err)
	}

	// The service handler plus the standard pprof endpoints: a live
	// server can be profiled in place (go tool pprof
	// http://host/debug/pprof/profile) without a restart or rebuild.
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	hs := &http.Server{Addr: *addr, Handler: mux}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := <-sigs
		fmt.Fprintf(os.Stderr, "routed: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // cancels jobs between per-net solves
		_ = hs.Shutdown(ctx)  // stops the listener, drains connections
	}()

	fmt.Printf("routed: listening on %s (default oracle %s)\n", *addr, *oracleName)
	err = hs.ListenAndServe()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatal("routed", err)
	}
	// ErrServerClosed arrives as soon as the listener closes; wait for
	// the shutdown goroutine so in-flight responses finish draining
	// before the process exits.
	<-drained
}
