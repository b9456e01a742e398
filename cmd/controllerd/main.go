// Command controllerd runs the library's SDN controller as a real TCP
// daemon: external agents speaking the repository's OpenFlow dialect
// (see internal/ofnet and cmd/ofprobe) connect as switches, and any of
// the defense stacks can be enforced on live control traffic.
//
//	controllerd -addr 127.0.0.1:6653 -defense topoguard+ -http 127.0.0.1:9090
//
// The deterministic simulation kernel is driven in real time; all the
// controller and defense logic is byte-for-byte the code the paper
// experiments run. With -http, the daemon additionally serves
// Prometheus-text metrics at /metrics and the live topology as Graphviz
// DOT at /topology.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served by -pprof
	"os"
	"os/signal"
	"strings"
	"time"

	"sdntamper/internal/controller"
	"sdntamper/internal/core"
	"sdntamper/internal/obs"
	"sdntamper/internal/obs/trace"
	"sdntamper/internal/rtnet"
	"sdntamper/internal/sim"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	if err := run(os.Args[1:], sig, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "controllerd:", err)
		os.Exit(1)
	}
}

// run is the daemon body, factored out of main so tests can drive it:
// args are the command-line arguments, sig delivers the shutdown signal,
// and all status output goes to out.
func run(args []string, sig <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("controllerd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:6653", "listen address for switch connections")
	httpAddr := fs.String("http", "", "listen address for the observability HTTP endpoint (/metrics, /topology, /metrics/stream, /trace/stream); empty disables")
	pprofAddr := fs.String("pprof", "", "listen address for the net/http/pprof profiling endpoint (/debug/pprof/); empty disables")
	defense := fs.String("defense", "topoguard+", "defense stack: "+core.DefenseNames())
	profileName := fs.String("profile", "floodlight", "timing profile: floodlight, pox, opendaylight")
	seed := fs.Int64("seed", 0, "simulation RNG seed (0 derives one from the wall clock)")
	status := fs.Duration("status", 10*time.Second, "status print interval (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var profile controller.Profile
	switch *profileName {
	case "floodlight":
		profile = controller.Floodlight
	case "pox":
		profile = controller.POX
	case "opendaylight":
		profile = controller.OpenDaylight
	default:
		return fmt.Errorf("unknown profile %q", *profileName)
	}
	def, err := core.ParseDefenses(*defense)
	if err != nil {
		return err
	}

	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	fmt.Fprintf(out, "seed %d\n", *seed)
	kernel := sim.New(sim.WithSeed(*seed))
	opts := []controller.Option{
		controller.WithProfile(profile),
		controller.WithLogf(func(format string, a ...any) {
			fmt.Fprintf(out, "[ctl] "+format+"\n", a...)
		}),
	}
	// The LLDP keys derive from the seed: daemons on different seeds
	// hold different keys.
	lldpOpts, err := def.ControllerOptions(fmt.Sprintf("controllerd-%d", *seed))
	if err != nil {
		return err
	}
	ctl := controller.New(kernel, append(opts, lldpOpts...)...)
	defer ctl.Shutdown()
	obs.InstrumentKernel(ctl.Metrics(), kernel)
	mods := def.Deploy(ctl, nil)
	defer mods.Stop()

	driver := rtnet.NewDriver(kernel)
	driver.Start()
	defer driver.Stop()
	srv, err := rtnet.ServeController(*addr, ctl, driver)
	if err != nil {
		return err
	}
	defer srv.Shutdown()
	fmt.Fprintf(out, "controllerd listening on %s (profile=%s defense=%s)\n", srv.Addr(), profile.Name, *defense)

	if *httpAddr != "" {
		// The flight recorder rides along whenever the HTTP endpoint is
		// up, so /trace/stream can replay causal spans live. The daemon
		// runs in real time; the recorder's ring bounds its memory.
		rec := trace.NewRecorder(0)
		kernel.SetTracer(rec)
		ctl.SetTracer(rec)
		httpSrv, ln, err := serveObservability(*httpAddr, ctl, driver, rec)
		if err != nil {
			return err
		}
		defer httpSrv.Close()
		fmt.Fprintf(out, "observability endpoint on http://%s/metrics\n", ln.Addr())
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return err
		}
		// net/http/pprof registered its handlers on the default mux at
		// import time; this server exposes only that.
		pprofSrv := &http.Server{Handler: http.DefaultServeMux}
		go pprofSrv.Serve(pln)
		defer pprofSrv.Close()
		fmt.Fprintf(out, "pprof endpoint on http://%s/debug/pprof/\n", pln.Addr())
	}

	var ticker *sim.Ticker
	if *status > 0 {
		driver.Call(func() {
			ticker = kernel.NewTicker(*status, func() {
				fmt.Fprintf(out, "[status] t=%s switches=%d links=%d hosts=%d alerts=%d\n",
					kernel.Elapsed().Truncate(time.Second),
					len(ctl.Switches()), len(ctl.Links()), len(ctl.Hosts()), len(ctl.Alerts()))
			})
		})
		defer driver.Call(func() { ticker.Stop() })
	}

	<-sig
	fmt.Fprintln(out, "\nshutting down")
	return nil
}

// serveObservability starts the HTTP endpoint exposing the controller's
// metrics registry (Prometheus text format) and live topology (Graphviz
// DOT). Handlers run on arbitrary HTTP goroutines, so every touch of
// controller or registry state is marshalled onto the kernel goroutine
// via driver.Call — the registry is not locked, the kernel owns it.
func serveObservability(addr string, ctl *controller.Controller, driver *rtnet.Driver, rec *trace.Recorder) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var snap *obs.Snapshot
		driver.Call(func() { snap = ctl.Metrics().Snapshot() })
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, _ *http.Request) {
		var dot string
		driver.Call(func() { dot = ctl.TopologyDot(nil) })
		w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
		io.WriteString(w, dot)
	})
	mux.HandleFunc("/trace/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := sseStart(w)
		if !ok {
			return
		}
		var cursor uint64
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
			var spans []trace.Span
			driver.Call(func() { spans, cursor = rec.SpansSince(cursor) })
			if len(spans) == 0 {
				io.WriteString(w, ": keepalive\n\n")
				fl.Flush()
				continue
			}
			var b strings.Builder
			if err := trace.WriteJSONL(&b, spans); err != nil {
				return
			}
			sseData(w, b.String())
			fl.Flush()
		}
	})
	mux.HandleFunc("/metrics/stream", func(w http.ResponseWriter, r *http.Request) {
		fl, ok := sseStart(w)
		if !ok {
			return
		}
		counters := map[string]uint64{}
		gauges := map[string]int64{}
		ticker := time.NewTicker(time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-ticker.C:
			}
			var snap *obs.Snapshot
			driver.Call(func() { snap = ctl.Metrics().Snapshot() })
			var b strings.Builder
			for _, c := range snap.Counters {
				if prev, seen := counters[c.Name]; !seen || c.Value != prev {
					fmt.Fprintf(&b, "{\"name\":%q,\"value\":%d,\"delta\":%d}\n", c.Name, c.Value, c.Value-prev)
					counters[c.Name] = c.Value
				}
			}
			for _, g := range snap.Gauges {
				if prev, seen := gauges[g.Name]; !seen || g.Value != prev {
					fmt.Fprintf(&b, "{\"name\":%q,\"value\":%d,\"delta\":%d}\n", g.Name, g.Value, g.Value-prev)
					gauges[g.Name] = g.Value
				}
			}
			if b.Len() == 0 {
				io.WriteString(w, ": keepalive\n\n")
				fl.Flush()
				continue
			}
			sseData(w, b.String())
			fl.Flush()
		}
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln, nil
}

// sseStart negotiates a server-sent-events response, reporting the
// flusher the event loop needs.
func sseStart(w http.ResponseWriter) (http.Flusher, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl, true
}

// sseData writes one SSE event whose data lines are the given
// newline-separated payload (one JSON object per line).
func sseData(w io.Writer, payload string) {
	for _, line := range strings.Split(strings.TrimRight(payload, "\n"), "\n") {
		fmt.Fprintf(w, "data: %s\n", line)
	}
	io.WriteString(w, "\n")
}
