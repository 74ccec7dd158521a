// Command ticketd serves the framework-composed trouble-ticketing
// component over amrpc, optionally announcing itself to a naming service
// and optionally requiring authentication.
//
//	ticketd -addr :7000 -capacity 16
//	ticketd -addr :7000 -naming 127.0.0.1:7500 -auth -issue alice:client,bob:agent
//	ticketd -addr :7000 -obs 127.0.0.1:7070   # /metrics /trace /describe /cluster
//	ticketd -addr :7000 -naming 127.0.0.1:7500 -cluster-id node-a   # admission-plane replica
//
// With -auth, tokens for the principals listed in -issue are printed at
// startup (name:role[,role...] pairs separated by commas between entries
// are not supported; each -issue entry is name:role).
//
// With -cluster-id, the process joins the distributed admission plane:
// the naming service partitions admission domains across all replicas
// started with the same -naming address, this node serves the domains it
// owns under a fenced lease and transparently forwards the rest, and
// failover to the survivors is automatic when a replica dies.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/amrpc"
	"repro/internal/apps/ticket"
	"repro/internal/aspects/audit"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/metrics"
	"repro/internal/cluster"
	"repro/internal/naming"
	"repro/internal/obs"
)

// options carries every flag-derived setting into run.
type options struct {
	addr       string
	capacity   int
	namingAddr string
	ttl        time.Duration
	enableAuth bool
	issue      string
	auditCap   int
	readTO     time.Duration
	maxLine    int
	maxConc    int
	shedMark   int
	obsAddr    string
	obsSample  int
	obsTrace   int
	clusterID  string
	clusterTTL time.Duration
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7000", "listen address")
	flag.IntVar(&o.capacity, "capacity", 16, "ticket buffer capacity")
	flag.StringVar(&o.namingAddr, "naming", "", "naming service address (optional; required for -cluster-id)")
	flag.DurationVar(&o.ttl, "ttl", 30*time.Second, "naming lease TTL")
	flag.BoolVar(&o.enableAuth, "auth", false, "require authentication")
	flag.StringVar(&o.issue, "issue", "alice:client", "comma-separated name:role principals to issue tokens for (with -auth)")
	flag.IntVar(&o.auditCap, "audit", 1024, "audit trail capacity (0 disables)")
	flag.DurationVar(&o.readTO, "read-timeout", 5*time.Minute, "per-connection inactivity deadline (0 disables)")
	flag.IntVar(&o.maxLine, "max-line", 4*1024*1024, "max request frame size in bytes")
	flag.IntVar(&o.maxConc, "max-conn-concurrency", 256, "bound on in-flight requests per connection (the worker pool)")
	flag.IntVar(&o.shedMark, "shed-watermark", 0, "shed requests with CodeOverloaded when the moderator's parked-waiter count reaches this (0 disables)")
	flag.StringVar(&o.obsAddr, "obs", "", "introspection HTTP address serving /metrics, /trace, /describe, /cluster (empty disables)")
	flag.IntVar(&o.obsSample, "obs-sample", obs.DefaultSampleEvery, "trace 1 in N admissions in detail (<=1 traces all)")
	flag.IntVar(&o.obsTrace, "obs-trace", obs.DefaultRingCapacity, "per-domain trace ring capacity")
	flag.StringVar(&o.clusterID, "cluster-id", "", "join the distributed admission plane as this node (empty disables; requires -naming)")
	flag.DurationVar(&o.clusterTTL, "cluster-lease", 3*time.Second, "admission-domain lease TTL in cluster mode")
	flag.Parse()

	if err := run(o); err != nil {
		log.Fatal(err)
	}
}

func run(o options) error {
	cfg := ticket.GuardedConfig{Capacity: o.capacity, Metrics: metrics.NewRecorder()}
	var collector *obs.Collector
	if o.obsAddr != "" {
		collector = obs.NewCollector(obs.WithSampleEvery(o.obsSample), obs.WithRingCapacity(o.obsTrace))
		cfg.Obs = collector
	}
	var trail *audit.Trail
	if o.auditCap > 0 {
		var err error
		trail, err = audit.NewTrail(o.auditCap, audit.WithSink(os.Stderr))
		if err != nil {
			return err
		}
		cfg.Audit = trail
	}
	g, err := ticket.NewGuarded(cfg)
	if err != nil {
		return err
	}
	if o.enableAuth {
		store := auth.NewTokenStore()
		for _, entry := range strings.Split(o.issue, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			parts := strings.SplitN(entry, ":", 2)
			name := parts[0]
			var roles []string
			if len(parts) == 2 && parts[1] != "" {
				roles = strings.Split(parts[1], "+")
			}
			tok := store.Issue(name, roles...)
			fmt.Printf("issued token for %s: %s\n", name, tok)
		}
		if err := g.EnableAuthentication(store); err != nil {
			return err
		}
		log.Print("authentication layer enabled")
	}

	log.Printf("composition:\n%s", g.Moderator().DescribeString())

	// Serve either standalone (a plain amrpc server) or as one replica of
	// the distributed admission plane.
	serverOpts := []amrpc.ServerOption{
		amrpc.WithReadTimeout(o.readTO),
		amrpc.WithMaxLineBytes(o.maxLine),
		amrpc.WithMaxConcurrentPerConn(o.maxConc),
	}
	if o.shedMark > 0 {
		mod := g.Moderator()
		wm := o.shedMark
		serverOpts = append(serverOpts, amrpc.WithShedPolicy(func(component, method string) (int64, bool) {
			p := mod.Pressure()
			if p < wm {
				return 0, false
			}
			// The retry hint grows with the overshoot, capped at a second:
			// deeper backlog, longer backoff.
			ra := int64(p - wm + 1)
			if ra > 1000 {
				ra = 1000
			}
			return ra, true
		}))
		log.Printf("admission-aware shedding on: refuse before parking at parked-waiter count >= %d", wm)
	}
	var (
		srv       *amrpc.Server
		node      *cluster.Node
		serveAddr string
		serveErr  = make(chan error, 1)
	)
	if o.clusterID != "" {
		if o.namingAddr == "" {
			return fmt.Errorf("cluster mode (-cluster-id) requires -naming")
		}
		// The ticket methods share the buffer, so the moderator groups
		// them and the plane admits the group as ONE domain
		// ("assign+open"): the owning replica runs all of this
		// component's guards, everyone else forwards to it.
		node, err = cluster.Start(cluster.Config{
			ID:            o.clusterID,
			Local:         g.Proxy(),
			Naming:        o.namingAddr,
			LeaseTTL:      o.clusterTTL,
			MemberTTL:     o.clusterTTL,
			ServerOptions: serverOpts,
			Logf:          log.Printf,
		}, o.addr)
		if err != nil {
			return err
		}
		serveAddr = node.Addr()
		if collector != nil {
			collector.WatchCluster(node)
		}
		log.Printf("cluster node %s serving %q on %s (capacity %d, lease %v)",
			o.clusterID, ticket.ComponentName, serveAddr, o.capacity, o.clusterTTL)
		log.Printf("state replication on: owned domains stream guarded effects to their ring successor " +
			"(watch per-domain lag with `ticketcli obs -view cluster`)")
	} else {
		srv = amrpc.NewServer(serverOpts...)
		if err := srv.Register(g.Proxy()); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
		serveAddr = ln.Addr().String()
		go func() { serveErr <- srv.Serve(ln) }()
		log.Printf("ticketd serving %q on %s (capacity %d)", ticket.ComponentName, serveAddr, o.capacity)
	}

	var obsLn net.Listener
	if collector != nil {
		collector.Registry().GaugeFunc("obs_trace_drops",
			"Trace events dropped by ring contention.",
			func() float64 { return float64(collector.Drops()) })
		if srv != nil {
			collector.Registry().GaugeFunc("am_shed_total",
				"Requests refused with CodeOverloaded by the admission-aware shed policy.",
				func() float64 { return float64(srv.Stats().Sheds) })
			collector.Registry().GaugeFunc("am_conn_rejected_total",
				"Requests refused because a connection's work queue was full.",
				func() float64 { return float64(srv.Stats().Rejected) })
		}
		obsLn, err = net.Listen("tcp", o.obsAddr)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			if node != nil {
				node.Close()
			}
			return err
		}
		go func() { _ = http.Serve(obsLn, obs.NewHTTPHandler(collector)) }()
		log.Printf("introspection on http://%s (sampling 1 in %d)", obsLn.Addr(), o.obsSample)
	}

	// Register the component name with the naming service and keep the
	// entry alive, so plain clients resolve SOME replica (any node of the
	// plane routes to the right owner). The cluster node separately
	// maintains its own member and lease records.
	stopRenew := make(chan struct{})
	renewDone := make(chan struct{})
	if o.namingAddr != "" {
		nc, err := naming.DialClient(o.namingAddr)
		if err != nil {
			if srv != nil {
				srv.Close()
			}
			if node != nil {
				node.Close()
			}
			return err
		}
		if err := nc.Register(ticket.ComponentName, serveAddr, o.ttl); err != nil {
			if srv != nil {
				srv.Close()
			}
			if node != nil {
				node.Close()
			}
			return err
		}
		log.Printf("registered with naming service %s (ttl %v)", o.namingAddr, o.ttl)
		go func() {
			defer close(renewDone)
			defer func() { _ = nc.Close() }()
			tick := time.NewTicker(o.ttl / 3)
			defer tick.Stop()
			for {
				select {
				case <-stopRenew:
					_, _ = nc.Unregister(ticket.ComponentName)
					return
				case <-tick.C:
					if err := nc.Register(ticket.ComponentName, serveAddr, o.ttl); err != nil {
						log.Printf("lease renewal failed: %v", err)
					}
				}
			}
		}()
	} else {
		close(renewDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	case err := <-serveErr:
		if err != nil {
			log.Printf("serve failed: %v", err)
		}
	}
	close(stopRenew)
	<-renewDone
	if obsLn != nil {
		_ = obsLn.Close()
	}
	if node != nil {
		node.Close()
	} else {
		srv.Close()
	}

	stats := g.Moderator().Stats()
	log.Printf("final stats: %d admissions, %d blocks, %d aborts, buffer %d",
		stats.Admissions, stats.Blocks, stats.Aborts, g.Server().Size())
	if node != nil {
		st := node.Status()
		log.Printf("cluster stats: %d local, %d forwarded, %d retries, %d stale refusals, %d takeovers",
			st.LocalCalls, st.Forwards, st.ForwardRetries, st.StaleRefusals, st.Takeovers)
	}
	if cfg.Metrics != nil {
		fmt.Print(cfg.Metrics.Report())
	}
	return nil
}
