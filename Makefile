# Verification stages for the aspect-moderator reproduction. Each recipe
# lists the tests it runs; its comment, where it has one, says why.
#
#   make tier1          build + full test suite (keep_test.go's keep rule
#                       included), schedtest at GOMAXPROCS 1 and 8, each
#                       BenchmarkE1-E11 body once
#   make lint           go vet, gofmt -l over tracked .go files, staticcheck
#                       when on PATH
#   make race           full suite under -race, then focused repeat passes
#                       over the concurrency-sensitive tests (the
#                       replication pass includes both request-line
#                       lifetime tests, replica and owner side)
#   make fuzz-smoke     FUZZTIME (10s) of fuzzing per target, among them
#                       FuzzCaptureWireForm: a served call captured in wire
#                       form replays as its decoded list does
#   make bench          bash benchmark/run.sh $(ARGS) (see benchmark/README.md);
#                       ARGS='-compare a.json b.json' compares two result files
#   make obs-smoke      ticketd with -obs under load: /metrics and /trace live
#   make cluster-smoke  the 3-node admission-plane soak and membership events
#   make handoff-smoke  one deterministic test per state-handoff path, with
#                       TestCaptureDoesNotAliasRequestLine
#   make examples-smoke build and run every examples/* program
#   make cpu-matrix     core-count-independent packages at GOMAXPROCS 1, 2, 4
#   make check          all of the above but bench

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
	$(GO) test -race -count=3 -run 'TestMalformedOfferAppliesNothing|TestReplicaIgnoresOlderSnapshot|TestManager|TestResume' ./internal/statesync/
	$(GO) test -race -count=3 -run 'TestReplicaDoesNotAliasRequestLine|TestCaptureDoesNotAliasRequestLine|TestClusterGracefulHandoffSnapshot|TestClusterHardKillLogCatchup|TestClusterFailedHandoffLeavesBarrier|TestClusterStaleSyncOfferRefused|TestClusterSameTermReacquireKeepsReplication|TestClusterSnapshotWithoutRestoreCountsGap|TestRelayPipelinedCallsKeepTheirArguments|TestRelayRetryResendsIdenticalArguments|TestUnlistedMethodIsServed|TestStartRefusesSplitGroup|TestClusterWakeSweep|TestReplicationLayerCapturesEveryRoute|TestReplicationLayerComposition|TestCaptureOrderIsExecutionOrder' ./internal/cluster/
	$(GO) test -race -count=10 -run 'TestRefreshRoutesKeepsHigherTerm|TestRouteAnnouncement|TestClusterJoinConvergesWithoutTick|TestClusterLeaveConvergesWithoutTick|TestClusterAnnouncesToNewMember|TestClusterNudgesBounded|TestClusterFreeDomainWakesRingOwner|TestClusterJoinHandsOffOnFirstOffer|TestClusterCloseHandsOffAlongFreshListing' ./internal/cluster/

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
	$(GO) test ./internal/statesync -run '^$$' -fuzz '^FuzzCaptureWireForm$$' -fuzztime $(FUZZTIME)
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
# a domain left free waking the member the ring gives it to, without a
# tick; a naming-service restart every node rides out within two beats,
# keeping each owned domain at its term; and the replication layer the
# node composes: each completion route captured once, the layer innermost
# in Describe and gone after Close, and a successor replaying a serialized
# domain's log in the order the owner ran it. The ledger audit inside
# demands zero lost and zero forged effects.
cluster-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterChaosSoak|TestClusterFailover|TestClusterFailoverReadmitsParkedCallers|TestClusterDifferentialOracle|TestRelayPipelinedCallsKeepTheirArguments|TestRelayRetryResendsIdenticalArguments|TestUnlistedMethodIsServed|TestStartRefusesSplitGroup|TestClusterWakeSweep|TestClusterJoinConvergesWithoutTick|TestClusterLeaveConvergesWithoutTick|TestClusterAnnouncesToNewMember|TestClusterNudgesBounded|TestClusterRidesOutNamingRestart|TestClusterFreeDomainWakesRingOwner|TestReplicationLayerCapturesEveryRoute|TestReplicationLayerComposition|TestCaptureOrderIsExecutionOrder'
	@echo "cluster-smoke: OK"

# The state-handoff certification run: one deterministic test per handoff
# path. Graceful release must move the domain's full state through the
# snapshot barrier before the lease moves; a hard kill must recover it
# from the streamed effect log alone (no snapshot hooks); a zombie
# leader's replication offer at a stale term must be refused; a lease
# re-acquired at an unchanged term must keep its effect log; a
# snapshot the taker cannot install must be counted as a catch-up gap;
# a replica must not let a late, older snapshot replace a newer one; an
# effect whose argument no offer can carry must not stall the stream; a
# join's handoff must reach the newcomer on its first offer, no failed
# attempt logged, and leave it a barrier; a Close right after the
# closer's ring successor left must hand off, with a barrier, to a member
# still listed; a hole left after a snapshot's mark must bring another
# snapshot; an ack from a successor the stream was moved away from
# must not count for the new one; a handoff that cannot reach its
# successor, or has none, must still plant its barrier, at once; a
# resume must count as a catch-up gap whatever it could not bring back;
# and an owner must copy a served call's arguments out of the request
# line it captures them from, which the next frames overwrite.
handoff-smoke:
	$(GO) test ./internal/cluster/ -count=1 -timeout 120s \
		-run 'TestClusterGracefulHandoffSnapshot|TestClusterHardKillLogCatchup|TestClusterStaleSyncOfferRefused|TestClusterSameTermReacquireKeepsReplication|TestClusterSnapshotWithoutRestoreCountsGap|TestClusterReplicatesPastDeepArgument|TestCaptureDoesNotAliasRequestLine|TestClusterJoinHandsOffOnFirstOffer|TestClusterCloseHandsOffAlongFreshListing|TestClusterFailedHandoffLeavesBarrier'
	$(GO) test ./internal/statesync/ -count=1 -timeout 60s -run 'TestReplicaIgnoresOlderSnapshot|TestManagerPassesUnsendableEntry|TestManagerSnapshotKeepsLaterHole|TestManagerRetargetDuringFlush|TestManagerHandoffWithoutSuccessorReturnsAtOnce|TestResumeCountsWhatItCannotBringBack|TestResumeSameTermKeepsLog'
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
