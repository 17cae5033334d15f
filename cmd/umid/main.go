// Command umid is the UMI profiling daemon: a long-lived service
// multiplexing many concurrent guest profiling sessions over one shared
// analyzer pool. Clients create sessions over HTTP, run registered
// workloads or submitted address-trace streams, and scrape per-session
// reports, history, metrics, overhead attribution and event timelines,
// a fleet-wide Prometheus exposition, and the daemon's own pprof
// profiles (GET / lists the routes).
//
// Usage:
//
//	umid [-http addr] [-max-sessions n] [-prep-workers n]
//	     [-queue-bound n] [-queue-high-water n]
//
// The daemon runs until SIGINT/SIGTERM, then drains gracefully: new work
// is refused with 503, in-flight session runs complete, and the shared
// pool shuts down. Each session's results are byte-identical to the same
// configuration run standalone under umiprof — co-tenancy never perturbs
// a profile.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"umi/internal/introspect"
)

func main() {
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGINT, syscall.SIGTERM)
	stop := make(chan struct{})
	go func() {
		<-shutdown
		close(stop)
	}()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is main's guts with the process edges (args, streams, exit status,
// shutdown signal) injected, so the end-to-end tests drive the real
// daemon path in-process.
func run(args []string, stdout, stderr io.Writer, stop <-chan struct{}) int {
	fs := flag.NewFlagSet("umid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "127.0.0.1:0", "address to serve the control plane on")
	maxSessions := fs.Int("max-sessions", introspect.DefaultMaxSessions,
		"concurrent session cap; creates past it are rejected with 429")
	prepWorkers := fs.Int("prep-workers", introspect.DefaultPrepWorkers,
		"shared analyzer preparation pool width")
	queueBound := fs.Int("queue-bound", 0,
		"shared preparation queue capacity (0: library default)")
	queueHighWater := fs.Int("queue-high-water", 0,
		"reject new runs with 429 at this queue depth (0: the queue bound)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: umid [flags]   (sessions are created over HTTP)")
		return 2
	}

	d := introspect.NewDaemon(introspect.DaemonConfig{
		MaxSessions:    *maxSessions,
		PrepWorkers:    *prepWorkers,
		QueueBound:     *queueBound,
		QueueHighWater: *queueHighWater,
	})
	addr, stopServe, err := d.Serve(*httpAddr)
	if err != nil {
		fmt.Fprintf(stderr, "umid: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "umid: control plane at http://%s/ (max %d sessions, %d prep workers)\n",
		addr, *maxSessions, *prepWorkers)

	<-stop
	fmt.Fprintln(stderr, "umid: draining: refusing new work, waiting for in-flight runs")
	d.Shutdown()
	stopServe()
	fmt.Fprintln(stderr, "umid: drained, exiting")
	return 0
}
