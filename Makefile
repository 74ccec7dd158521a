# Verification stages for the aspect-moderator reproduction.
#
#   make tier1       — build + full test suite (the gating check; it
#                      includes keep_test.go, the keep rule: every export
#                      under internal/ has a program caller or a written
#                      reason), the schedtest explorer again at
#                      GOMAXPROCS 1 and 8 so its verdict cannot depend
#                      on the host's core count, then every
#                      BenchmarkE1-E11 body once so the paper
#                      experiments cannot rot
#   make lint        — go vet, gofmt -l over every tracked .go file (any
#                      name printed fails), plus staticcheck when it is
#                      on PATH
#   make race        — full suite under the race detector, plus a focused
#                      double-count pass over the sharded-moderator stress,
#                      differential-oracle, mutex-tier, optimistic and
#                      route-equivalence tests, the composition write path
#                      (plan-cache invalidation and churn, untorn Describe,
#                      receipts across RemoveLayer, superseded snapshots
#                      collected), the wake fan-out over a domain's queue
#                      list, the waitq recycled-waiter race and the waitq
#                      wake-order tests (each under a context that cannot
#                      be cancelled and one that can), the obs event
#                      ring and churn concurrency tests, five
#                      rounds of the invocation-
#                      recycling tests (a released record carries no
#                      token, priority, barrier generation, ctx, args,
#                      wire-form args or their shared copy, or trace id
#                      into its next call — in process and over amrpc),
#                      ten rounds of the amrpc line-buffer aliasing (a
#                      kept argument string among them), late-reply,
#                      frame-writer and flush-ledger tests, and three of the amrpc retry,
#                      re-dial and backoff-schedule tests, of the wire-code
#                      round trip (a self-coded error, the circuit
#                      breaker's among them, goes out under its own
#                      code), of the naming client re-dialing across
#                      a server restart, and of the
#                      replication tests: offer atomicity, snapshot
#                      order, request-line ownership, every handoff
#                      path and an effect no offer can carry (refused
#                      at capture, the stream getting past its hole),
#                      of the relay's buffer-lifetime and retry
#                      tests, and of the domain-map tests (an unlisted
#                      method is served, a split group is refused) and
#                      the heartbeat wake sweep and the replication
#                      layer (every completion route captured once, the
#                      layer composed innermost and removed by Close,
#                      log order equal to execution order), and ten of the
#                      membership-event tests (join, leave, route
#                      announcements sent and received, nudge bounds)
#   make fuzz-smoke  — 10s of coverage-guided fuzzing per target: the
#                      wire encoders and decoders, the value decoder, the
#                      wire-form arguments (every accessor differential
#                      against the decoded list) and
#                      the replication-offer decoder (each differential
#                      against encoding/json), the cluster relay
#                      (differential against decoding at the entry), the
#                      interference checker, and the seqlock guard-eval
#                      differential target
#   make bench       — the one benchmark harness: `bash benchmark/run.sh`,
#                      all five workloads into benchmark/out/ (see
#                      benchmark/README.md). ARGS is passed through:
#                        make bench ARGS='--workload rpc_sequential --seed 2'
#                        make bench ARGS='-compare parent.json change.json'
#                      -compare prints better/same/worse/unresolved per
#                      metric for two result files and measures nothing
#   make obs-smoke   — boot ticketd with -obs, drive load, assert /metrics
#                      and /trace serve live non-empty data
#   make cluster-smoke — the 3-node in-process admission-plane soak:
#                      ≥1000 guarded invocations under chaosnet faults
#                      with a mid-run partition+heal and an owner kill,
#                      plus the failover and park-readmission tests, the
#                      relay's buffer-lifetime and retry tests, the
#                      domain map read from the moderator (an unlisted
#                      method is served, a split group is refused), the
#                      heartbeat wake sweep, and the membership events
#                      that move ownership without a tick: a join and a
#                      graceful leave each converge within 2 s under a
#                      15 s heartbeat, a member an acquirer's route
#                      announcement missed is sent it, and nudges are
#                      bounded (none in a converged cluster, a burst
#                      coalesced into at most two beats), a node riding
#                      out a naming-service restart (its next beat re-dials,
#                      nothing is re-acquired), and the replication layer:
#                      every completion route captured exactly once, the
#                      layer shown innermost by Describe and removed by
#                      Close, and a serialized domain's replayed log equal
#                      to its execution order as a sequence
#   make handoff-smoke — the deterministic state-handoff certification:
#                      graceful release via the snapshot barrier, hard
#                      kill via effect-log catch-up, stale-term
#                      replication fencing, a late older snapshot
#                      never replacing a newer one, and an effect no
#                      offer can carry refused at capture, the stream
#                      getting past its hole (with a snapshot, or as a
#                      gap) in the cluster and in statesync alone
#   make examples-smoke — build every examples/* program and run each
#                      under a timeout; any non-zero exit fails (go test
#                      only compiles them)
#   make cpu-matrix  — the packages whose tests take the same time at any
#                      core count, run at GOMAXPROCS 1, 2 and 4, so their
#                      verdicts cannot depend on the host's
#   make check       — tier1 + lint + race + fuzz-smoke + obs-smoke +
#                      cluster-smoke + handoff-smoke + examples-smoke +
#                      cpu-matrix

GO ?= go
FUZZTIME ?= 10s
OBS_SMOKE_DIR := $(or $(TMPDIR),/tmp)/obs-smoke
EXAMPLES_SMOKE_DIR := $(or $(TMPDIR),/tmp)/examples-smoke

.PHONY: tier1 lint race fuzz-smoke bench obs-smoke cluster-smoke handoff-smoke examples-smoke cpu-matrix check

tier1:
	$(GO) build ./...
	$(GO) test ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/schedtest
	GOMAXPROCS=8 $(GO) test -count=1 ./internal/schedtest
	$(GO) test -run '^$$' -bench . -benchtime 1x .

lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt -l:"; echo "$$unformatted"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 -short -run 'TestModeratorStress|TestDifferential|TestWakeMode|TestMutexTier|TestOptimistic|TestRoute|TestPlanCache|TestDescribeNeverTearsDuringChurn|TestAdmissionReceiptSurvivesRemoveLayer|TestSupersededSnapshotsAreCollected|TestWakeFanOut|TestCancelRaceRecycledWaiterCarriesNoToken|TestFIFOOrder|TestLIFOOrder|TestPriorityOrderWithFIFOTieBreak|TestBroadcastWakesAll' ./internal/moderator/ ./internal/waitq/
	$(GO) test -race -count=2 -run 'TestObsUnderLayerChurn|TestRingNeverBlocks' ./internal/obs/
	$(GO) test -race -count=5 -run 'TestRecycledInvocation|TestTraceIDsSoundUnderRecycling' ./internal/apps/ticket/ ./internal/aspects/coord/ ./internal/obs/
	$(GO) test -race -count=5 -run 'TestRecycledInvocationCarriesNoToken|TestRecycledInvocationCarriesNoWireArgs' ./internal/amrpc/
	$(GO) test -race -count=10 -run 'TestConcurrentPipelinedCalls|TestKeptArgStringDoesNotAliasRequestLine|TestLateReplyToAbandonedCall|TestFrameWriter|TestWriterCoalescingAccounting' ./internal/amrpc/
	$(GO) test -race -count=3 -run 'TestIdempotentCallRetriesThroughReconnect|TestCallerDeadlineStopsRetries|TestChaosCorruptionRecoveredByChecksumAndRetry|TestBackoff|TestWireCodesRoundTrip|TestClientSurvivesServerRestart' ./internal/amrpc/ ./internal/naming/
	$(GO) test -race -count=3 -run 'TestMalformedOfferAppliesNothing|TestReplicaIgnoresOlderSnapshot|TestManager' ./internal/statesync/
	$(GO) test -race -count=3 -run 'TestReplicaDoesNotAliasRequestLine|TestClusterGracefulHandoffSnapshot|TestClusterHardKillLogCatchup|TestClusterStaleSyncOfferRefused|TestClusterSameTermReacquireKeepsReplication|TestClusterSnapshotWithoutRestoreCountsGap|TestRelayPipelinedCallsKeepTheirArguments|TestRelayRetryResendsIdenticalArguments|TestUnlistedMethodIsServed|TestStartRefusesSplitGroup|TestClusterWakeSweep|TestReplicationLayerCapturesEveryRoute|TestReplicationLayerComposition|TestCaptureOrderIsExecutionOrder' ./internal/cluster/
	$(GO) test -race -count=10 -run 'TestRefreshRoutesKeepsHigherTerm|TestRouteAnnouncement|TestClusterJoinConvergesWithoutTick|TestClusterLeaveConvergesWithoutTick|TestClusterAnnouncesToNewMember|TestClusterNudgesBounded' ./internal/cluster/

bench:
	bash benchmark/run.sh $(ARGS)

fuzz-smoke:
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzSealRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzSealResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/amrpc -run '^$$' -fuzz '^FuzzWireArgs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/statesync -run '^$$' -fuzz '^FuzzDecodeOffer$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzRelayArgs$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/moderator -run '^$$' -fuzz '^FuzzInterferenceChecker$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/moderator -run '^$$' -fuzz '^FuzzSeqlockGuardEval$$' -fuzztime $(FUZZTIME)

# End-to-end introspection smoke: a real ticketd process with the obs
# endpoint enabled, a real ticketcli driving load over amrpc, then the
# HTTP surface must serve non-empty metrics and a non-empty trace dump.
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR) && mkdir -p $(OBS_SMOKE_DIR)
	$(GO) build -o $(OBS_SMOKE_DIR)/ticketd ./cmd/ticketd
	$(GO) build -o $(OBS_SMOKE_DIR)/ticketcli ./cmd/ticketcli
	$(OBS_SMOKE_DIR)/ticketd -addr 127.0.0.1:7941 -obs 127.0.0.1:7942 -obs-sample 1 -audit 0 \
		> $(OBS_SMOKE_DIR)/ticketd.log 2>&1 & echo $$! > $(OBS_SMOKE_DIR)/ticketd.pid
	sh -c 'trap "kill $$(cat $(OBS_SMOKE_DIR)/ticketd.pid) 2>/dev/null" EXIT; \
		for i in $$(seq 1 50); do \
			$(OBS_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7941 open smoke "obs smoke" >/dev/null 2>&1 && break; \
			sleep 0.1; \
		done; \
		$(OBS_SMOKE_DIR)/ticketcli -addr 127.0.0.1:7941 load -n 50 >/dev/null; \
		curl -sf http://127.0.0.1:7942/metrics > $(OBS_SMOKE_DIR)/metrics.txt; \
		curl -sf "http://127.0.0.1:7942/trace?n=32" > $(OBS_SMOKE_DIR)/trace.json; \
		grep -q "^am_admissions_total" $(OBS_SMOKE_DIR)/metrics.txt || { echo "obs-smoke: no admissions in /metrics"; exit 1; }; \
		grep -q "\"op\": *\"admit\"" $(OBS_SMOKE_DIR)/trace.json || { echo "obs-smoke: no admit events in /trace"; exit 1; }; \
		$(OBS_SMOKE_DIR)/ticketcli obs -url http://127.0.0.1:7942 -view summary | grep -q "sampling" || { echo "obs-smoke: ticketcli obs summary failed"; exit 1; }'
	@echo "obs-smoke: OK"

# The distributed-admission certification run: a 3-node in-process
# cluster soak (chaos faults on every data-plane link, one node
# partitioned and healed mid-run, the owner of a domain killed outright)
# plus the deterministic failover and parked-caller re-admission tests;
# the relay's: 64 pipelined relayed calls each get their own argument
# back, and a retried forward re-sends the same argument bytes; the
# domain map the plane reads from the moderator: a method Config.Domains
# does not list is still leased and served, and a map that splits a
# moderator group is refused at Start; and the heartbeat wake sweep,
# which re-admits a caller parked through a change no completion signals;
# a naming-service restart every node rides out within two beats,
# keeping each owned domain at its term; and the replication layer the
# node composes: each completion route captured once, the layer innermost
# in Describe and gone after Close, and a successor replaying a serialized
# domain's log in the order the owner ran it. The ledger audit inside
# demands zero lost and zero forged effects.
cluster-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterChaosSoak|TestClusterFailover|TestClusterFailoverReadmitsParkedCallers|TestClusterDifferentialOracle|TestRelayPipelinedCallsKeepTheirArguments|TestRelayRetryResendsIdenticalArguments|TestUnlistedMethodIsServed|TestStartRefusesSplitGroup|TestClusterWakeSweep|TestClusterJoinConvergesWithoutTick|TestClusterLeaveConvergesWithoutTick|TestClusterAnnouncesToNewMember|TestClusterNudgesBounded|TestClusterRidesOutNamingRestart|TestReplicationLayerCapturesEveryRoute|TestReplicationLayerComposition|TestCaptureOrderIsExecutionOrder'
	@echo "cluster-smoke: OK"

# The state-handoff certification run: one deterministic test per handoff
# path. Graceful release must move the domain's full state through the
# snapshot barrier before the lease moves; a hard kill must recover it
# from the streamed effect log alone (no snapshot hooks); a zombie
# leader's replication offer at a stale term must be refused; a lease
# re-acquired at an unchanged term must keep its effect log; a
# snapshot the taker cannot install must be counted as a catch-up gap;
# a replica must not let a late, older snapshot replace a newer one; and
# an effect whose argument no offer can carry must not stall the stream.
handoff-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterGracefulHandoffSnapshot|TestClusterHardKillLogCatchup|TestClusterStaleSyncOfferRefused|TestClusterSameTermReacquireKeepsReplication|TestClusterSnapshotWithoutRestoreCountsGap|TestClusterReplicatesPastDeepArgument'
	$(GO) test ./internal/statesync/ -count=1 -timeout 60s -run 'TestReplicaIgnoresOlderSnapshot|TestManagerPassesUnsendableEntry'
	@echo "handoff-smoke: OK"

# Every example run as the program it is. go test ./... only compiles
# them, so a log.Fatal inside one — such as examples/adaptability's check
# that a self-contradicting concern is refused — is caught only here.
examples-smoke:
	rm -rf $(EXAMPLES_SMOKE_DIR) && mkdir -p $(EXAMPLES_SMOKE_DIR)
	$(GO) build -o $(EXAMPLES_SMOKE_DIR)/ ./examples/...
	@for dir in examples/*/; do \
		e=$$(basename $$dir); \
		if timeout 120 $(EXAMPLES_SMOKE_DIR)/$$e > $(EXAMPLES_SMOKE_DIR)/$$e.log 2>&1; then \
			echo "examples-smoke: $$e ok"; \
		else \
			echo "examples-smoke: $$e failed"; cat $(EXAMPLES_SMOKE_DIR)/$$e.log; exit 1; \
		fi; \
	done
	@echo "examples-smoke: OK"

# moderator and cluster join once their tests stop scaling with the core
# count (ROADMAP items 18 and 1a).
cpu-matrix:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/amrpc/ ./internal/waitq/ ./internal/statesync/ ./internal/schedtest/

check: tier1 lint race fuzz-smoke obs-smoke cluster-smoke handoff-smoke examples-smoke cpu-matrix
