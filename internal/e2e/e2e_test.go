// Package e2e_test builds the repository's command binaries and drives
// them as real processes: namingd, ticketd registering itself (with
// authentication), and ticketcli discovering the component by name and
// exercising it — the deployment story of the distributed open system the
// paper targets.
package e2e_test

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster/view"
	"repro/internal/naming"
	"repro/internal/obs"
)

// buildBinaries compiles the three commands once per test run.
func buildBinaries(t *testing.T) (namingd, ticketd, ticketcli string) {
	t.Helper()
	dir := t.TempDir()
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	build := func(name string) string {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Dir = repoRoot
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, b)
		}
		return out
	}
	return build("namingd"), build("ticketd"), build("ticketcli")
}

// freePort reserves an ephemeral TCP port and returns "127.0.0.1:port".
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// waitListening polls until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			_ = conn.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never started listening", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// daemon starts a long-running process and arranges SIGTERM + wait on
// cleanup. Its stdout is captured for later inspection.
type daemon struct {
	cmd      *exec.Cmd
	stdout   strings.Builder
	mu       sync.Mutex
	readerWg sync.WaitGroup
	stopOnce sync.Once
}

func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(bin, args...)}
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	d.readerWg.Add(1)
	go func() {
		defer d.readerWg.Done()
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			d.mu.Lock()
			d.stdout.WriteString(scanner.Text() + "\n")
			d.mu.Unlock()
		}
	}()
	t.Cleanup(d.stop)
	return d
}

// stop sends SIGTERM, killing the process if it has not exited 10 s later,
// and waits for it and its output.
func (d *daemon) stop() {
	d.stopOnce.Do(func() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			d.readerWg.Wait() // Wait closes stdout: read all of it first
			_ = d.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-done
		}
	})
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stdout.String()
}

// run executes a short-lived command and returns its combined output.
func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	b, err := cmd.CombinedOutput()
	return string(b), err
}

func TestDistributedDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	namingd, ticketd, ticketcli := buildBinaries(t)

	namingAddr := freePort(t)
	ticketAddr := freePort(t)

	// 1. Naming service.
	startDaemon(t, namingd, "-addr", namingAddr)
	waitListening(t, namingAddr)

	// 2. Ticket server with authentication, announcing itself.
	td := startDaemon(t, ticketd,
		"-addr", ticketAddr,
		"-naming", namingAddr,
		"-capacity", "8",
		"-auth", "-issue", "alice:client",
		"-audit", "0")
	waitListening(t, ticketAddr)

	// Extract alice's token from ticketd stdout.
	var token string
	deadline := time.Now().Add(10 * time.Second)
	for token == "" {
		for _, line := range strings.Split(td.output(), "\n") {
			if strings.HasPrefix(line, "issued token for alice: ") {
				token = strings.TrimPrefix(line, "issued token for alice: ")
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("token never printed; ticketd output:\n%s", td.output())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// 3. Anonymous client: rejected by the authentication layer.
	out, err := run(t, ticketcli, "-naming", namingAddr, "open", "TT-1", "no token")
	if err == nil {
		t.Fatalf("anonymous open must fail, got:\n%s", out)
	}
	if !strings.Contains(out, "unauthenticated") {
		t.Fatalf("anonymous failure should mention unauthenticated:\n%s", out)
	}

	// 4. Authenticated client via naming discovery: open then assign.
	out, err = run(t, ticketcli, "-naming", namingAddr, "-token", token,
		"open", "TT-1", "printer on fire")
	if err != nil {
		t.Fatalf("authenticated open: %v\n%s", err, out)
	}
	if !strings.Contains(out, "opened TT-1") {
		t.Fatalf("open output:\n%s", out)
	}
	out, err = run(t, ticketcli, "-addr", ticketAddr, "-token", token, "assign")
	if err != nil {
		t.Fatalf("assign: %v\n%s", err, out)
	}
	if !strings.Contains(out, "assigned TT-1") {
		t.Fatalf("assign output:\n%s", out)
	}

	// 5. Load generator: move tickets through concurrently.
	out, err = run(t, ticketcli, "-addr", ticketAddr, "-token", token,
		"load", "-n", "200", "-clients", "4")
	if err != nil {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if !strings.Contains(out, "moved 200 tickets") {
		t.Fatalf("load output:\n%s", out)
	}
}

// TestNamingRestartRediscovers pins that a ticketd stays discoverable
// across a namingd restart: the restarted service starts empty, and
// ticketd's next lease renewal re-dials it and registers the component
// again, so within two renew periods (-ttl/3 each) a client resolving the
// name through the new namingd completes a call.
func TestNamingRestartRediscovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	namingd, ticketd, ticketcli := buildBinaries(t)
	namingAddr, ticketAddr := freePort(t), freePort(t)
	const ttl = 3 * time.Second

	nd := startDaemon(t, namingd, "-addr", namingAddr)
	waitListening(t, namingAddr)
	startDaemon(t, ticketd, "-addr", ticketAddr, "-naming", namingAddr,
		"-ttl", ttl.String(), "-capacity", "8", "-audit", "0")
	waitListening(t, ticketAddr)
	if out, err := run(t, ticketcli, "-naming", namingAddr, "open", "TT-1", "before"); err != nil {
		t.Fatalf("open before the restart: %v\n%s", err, out)
	}

	nd.stop()
	startDaemon(t, namingd, "-addr", namingAddr)
	waitListening(t, namingAddr)
	deadline := time.Now().Add(2 * ttl / 3)
	for {
		out, err := run(t, ticketcli, "-naming", namingAddr, "open", "TT-2", "after")
		if err == nil && strings.Contains(out, "opened TT-2") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticketd not discoverable %v after the namingd restart: %v\n%s", 2*ttl/3, err, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// clusterStatus fetches one ticketd's own cluster view from its obs
// endpoint.
func clusterStatus(t *testing.T, obsAddr string) (view.Status, bool) {
	t.Helper()
	resp, err := http.Get("http://" + obsAddr + "/cluster")
	if err != nil {
		return view.Status{}, false
	}
	defer resp.Body.Close()
	var dump obs.ClusterDump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil || len(dump.Nodes) != 1 {
		return view.Status{}, false
	}
	return dump.Nodes[0], true
}

// localOwner reports whether st shows its node owning domain.
func localOwner(st view.Status, domain string) bool {
	for _, d := range st.Domains {
		if d.Domain == domain {
			return d.Local
		}
	}
	return false
}

// TestClusterDeployment runs ticketd in cluster mode: two replicas
// against one naming service, the ticket methods in the one domain the
// plane derives from the moderator, and a client whose calls enter
// through the replica that does not own it.
func TestClusterDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real binaries")
	}
	namingd, ticketd, ticketcli := buildBinaries(t)
	const domain = "assign+open" // the ticket app's one moderator group

	// Start the replica the two-member ring designates as owner first,
	// so the other registers the component name last: a client resolving
	// it through the naming service reaches the non-owner.
	ownerID, otherID := "node-a", "node-b"
	if id, _ := naming.NewRing(0, ownerID, otherID).Owner(domain); id != ownerID {
		ownerID, otherID = otherID, ownerID
	}
	namingAddr := freePort(t)
	startDaemon(t, namingd, "-addr", namingAddr)
	waitListening(t, namingAddr)
	replica := func(id string) (obsAddr string) {
		addr, obsAddr := freePort(t), freePort(t)
		startDaemon(t, ticketd, "-addr", addr, "-naming", namingAddr, "-ttl", "60s",
			"-cluster-id", id, "-cluster-lease", "1s", "-obs", obsAddr, "-audit", "0")
		waitListening(t, addr)
		waitListening(t, obsAddr)
		return obsAddr
	}
	waitFor := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); !ok(); time.Sleep(50 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	ownerObs := replica(ownerID)
	waitFor(ownerID+" to own "+domain, func() bool {
		st, ok := clusterStatus(t, ownerObs)
		return ok && localOwner(st, domain)
	})
	otherObs := replica(otherID)
	converged := func() bool {
		owners := 0
		for _, addr := range []string{ownerObs, otherObs} {
			st, ok := clusterStatus(t, addr)
			if !ok || len(st.Members) != 2 || len(st.Domains) != 1 {
				return false
			}
			if localOwner(st, domain) {
				owners++
			}
			if st.Domains[0].Owner != ownerID {
				return false
			}
		}
		return owners == 1
	}
	waitFor("both replicas to agree on one owner of "+domain, converged)

	out, err := run(t, ticketcli, "-naming", namingAddr, "open", "TT-1", "printer on fire")
	if err != nil || !strings.Contains(out, "opened TT-1") {
		t.Fatalf("open: %v\n%s", err, out)
	}
	out, err = run(t, ticketcli, "-naming", namingAddr, "assign")
	if err != nil || !strings.Contains(out, "assigned TT-1") {
		t.Fatalf("assign: %v\n%s", err, out)
	}

	st, ok := clusterStatus(t, otherObs)
	if !ok {
		t.Fatal("non-owner's /cluster unreadable")
	}
	if st.Forwards != 2 || st.LocalCalls != 0 {
		t.Fatalf("non-owner %s: forwards=%d local=%d, want both calls forwarded", otherID, st.Forwards, st.LocalCalls)
	}
	if !converged() {
		t.Fatalf("after the calls, %s no longer has exactly one owner, %s", domain, ownerID)
	}
}
