package main

// The obs subcommand: a small reader for ticketd's introspection
// endpoint. The default view is an amtop-style summary assembled from
// /describe and /trace; the raw views print an endpoint's body verbatim.
//
//	ticketcli obs -url http://127.0.0.1:7070
//	ticketcli obs -url http://127.0.0.1:7070 -view metrics
//	ticketcli obs -url http://127.0.0.1:7070 -view trace -n 50

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func runObs(args []string) error {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:7070", "ticketd introspection base URL")
	view := fs.String("view", "summary", "summary | metrics | trace | describe | cluster")
	n := fs.Int("n", 15, "events to show (summary and trace views)")
	raw := fs.Bool("raw", false, "print the endpoint body verbatim instead of the rendered view")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := strings.TrimRight(*url, "/")
	switch *view {
	case "cluster":
		if !*raw {
			return clusterView(base)
		}
		return printRaw(base + "/cluster")
	case "metrics", "trace", "describe":
		path := "/" + *view
		if *view == "trace" {
			path = fmt.Sprintf("/trace?n=%d", *n)
		}
		return printRaw(base + path)
	case "summary":
		return summarize(base, *n)
	default:
		return fmt.Errorf("unknown view %q (want summary, metrics, trace, describe, or cluster)", *view)
	}
}

func printRaw(url string) error {
	body, err := fetch(url)
	if err != nil {
		return err
	}
	fmt.Print(string(body))
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Println()
	}
	return nil
}

// clusterView renders the /cluster ownership table: which node holds
// which admission domain at which lease term, plus the plane counters.
func clusterView(base string) error {
	body, err := fetch(base + "/cluster")
	if err != nil {
		return err
	}
	var dump obs.ClusterDump
	if err := json.Unmarshal(body, &dump); err != nil {
		return fmt.Errorf("decode /cluster: %w", err)
	}
	if len(dump.Nodes) == 0 {
		fmt.Println("no cluster nodes watched (is ticketd running with -cluster-id?)")
		return nil
	}
	for _, st := range dump.Nodes {
		fmt.Printf("node %s (%s) serving %q — members: %s\n",
			st.Node, st.Addr, st.Component, strings.Join(st.Members, " "))
		for _, d := range st.Domains {
			marker := " "
			if d.Local {
				marker = "*"
			}
			fmt.Printf("  %s domain %-20s owner=%-12s term=%-4d addr=%s\n",
				marker, d.Domain, d.Owner, d.Term, d.Addr)
		}
		fmt.Printf("  local=%d forwarded=%d retries=%d staleRefusals=%d wakes(sent=%d recv=%d) takeovers=%d\n",
			st.LocalCalls, st.Forwards, st.ForwardRetries, st.StaleRefusals,
			st.WakesSent, st.WakesReceived, st.Takeovers)
		for _, r := range st.Replication {
			switch {
			case r.Leading:
				fmt.Printf("  sync %-20s -> %-12s term=%-4d lag=%-5d streamed=%d snapshots=%d overflows=%d\n",
					r.Domain, r.Successor, r.Term, r.Lag, r.Streamed, r.SnapshotsSent, r.Overflows)
			case r.ReplicaFrom != "":
				fmt.Printf("  sync %-20s <- %-12s term=%-4d seq=%-5d snapshots=%d dups=%d gaps=%d\n",
					r.Domain, r.ReplicaFrom, r.ReplicaTerm, r.ReplicaSeq, r.SnapshotsRecv, r.Duplicates, r.Gaps)
			case r.CatchupApplied > 0 || r.Restored:
				fmt.Printf("  sync %-20s caught up: applied=%d gaps=%d restored=%v\n",
					r.Domain, r.CatchupApplied, r.CatchupGaps, r.Restored)
			}
		}
	}
	return nil
}

func fetch(url string) ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// summarize renders the amtop-style view: per-component admission totals
// and composition, then the tail of the event stream.
func summarize(base string, n int) error {
	body, err := fetch(base + "/describe")
	if err != nil {
		return err
	}
	var snap obs.DescribeSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("decode /describe: %w", err)
	}
	body, err = fetch(fmt.Sprintf("%s/trace?n=%d", base, n))
	if err != nil {
		return err
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		return fmt.Errorf("decode /trace: %w", err)
	}

	fmt.Printf("sampling 1 in %d admissions\n", snap.SampleEvery)
	for _, comp := range snap.Components {
		fmt.Printf("\ncomponent %s\n", comp.Name)
		var layers []string
		for _, l := range comp.Layers {
			layers = append(layers, l.Name)
		}
		fmt.Printf("  layers (outermost first): %s\n", strings.Join(layers, " > "))
		if len(comp.Domains) > 0 {
			var groups []string
			for _, d := range comp.Domains {
				groups = append(groups, "{"+strings.Join(d, ",")+"}")
			}
			fmt.Printf("  admission domains: %s\n", strings.Join(groups, " "))
		}
		fmt.Printf("  admissions %d   blocks %d   aborts %d   completions %d\n",
			comp.Stats.Admissions, comp.Stats.Blocks, comp.Stats.Aborts, comp.Stats.Completions)
		if len(comp.Parked) > 0 {
			methods := make([]string, 0, len(comp.Parked))
			for m := range comp.Parked {
				methods = append(methods, m)
			}
			sort.Strings(methods)
			var parts []string
			for _, m := range methods {
				parts = append(parts, fmt.Sprintf("%s=%d", m, comp.Parked[m]))
			}
			fmt.Printf("  parked: %s\n", strings.Join(parts, "  "))
		}
		queues := make([]string, 0, len(comp.Queues))
		for q := range comp.Queues {
			queues = append(queues, q)
		}
		sort.Strings(queues)
		for _, q := range queues {
			s := comp.Queues[q]
			fmt.Printf("  queue %-28s waits=%d notifies=%d broadcasts=%d cancels=%d\n",
				q, s.Waits, s.Notifies, s.Broadcasts, s.Cancels)
		}
	}

	fmt.Printf("\nrecent events (%d shown, %d ring drops)\n", len(dump.Events), dump.Drops)
	for _, e := range dump.Events {
		at := time.Unix(0, e.At).Format("15:04:05.000000")
		line := fmt.Sprintf("  %s [d%d #%d] %-8s %s", at, e.Domain, e.Seq, e.Op, e.Method)
		if e.Aspect != "" {
			line += " aspect=" + e.Aspect
		}
		if e.Verdict != "" {
			line += " verdict=" + e.Verdict
		}
		if e.Depth > 0 {
			line += fmt.Sprintf(" depth=%d", e.Depth)
		}
		if e.Nanos > 0 {
			line += fmt.Sprintf(" took=%v", time.Duration(e.Nanos).Round(time.Microsecond))
		}
		if e.Err != "" {
			line += " err=" + e.Err
		}
		fmt.Println(line)
	}
	return nil
}
