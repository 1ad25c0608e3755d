package telemetry

// Default is the process-wide registry the campaign pipeline reports
// into. It starts disabled, so the instrumented hot paths cost one
// atomic load per update site until a CLI flag (goat -timeline,
// goatbench -telemetry/-metrics) or a test enables it.
var Default = New()

// Enable turns the default registry on.
func Enable() { Default.Enable() }

// Disable turns the default registry off.
func Disable() { Default.Disable() }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return Default.Enabled() }

// Pre-registered handles for every instrumented layer of the pipeline.
// Keeping them as package variables makes the update sites allocation-
// and lookup-free.
var (
	// Virtual runtime (internal/sim): batched once per execution.
	SimRuns       = Default.Counter("sim.runs")
	SimDispatches = Default.Counter("sim.dispatches")
	SimOps        = Default.Counter("sim.ops")
	SimYields     = Default.Counter("sim.yields_injected")
	SimOpsPerRun  = Default.Histogram("sim.ops_per_run", CountBuckets)

	// Campaign engine (internal/engine).
	EngineRuns    = Default.Counter("engine.runs")
	EngineRunWall = Default.Histogram("engine.run_wall_ns", DurationBuckets)

	// ECT stream (telemetry.Sink riding the trace.Sink chain).
	ECTEvents = Default.Counter("ect.events")

	// Online detectors (internal/detect).
	DetectEvents     = Default.Counter("detect.events")
	DetectDetections = Default.Counter("detect.detections")

	// Systematic explorer (internal/systematic).
	SysPlacementsRun    = Default.Counter("systematic.placements_run")
	SysPlacementsPruned = Default.Counter("systematic.placements_pruned")
	SysDPORBacktracks   = Default.Counter("systematic.dpor_backtracks")
	SysDPORSleepHits    = Default.Counter("systematic.dpor_sleep_hits")

	// Evaluation harness (internal/harness).
	HarnessCells      = Default.Counter("harness.cells")
	HarnessDetections = Default.Counter("harness.detections")
	HarnessExecs      = Default.Counter("harness.execs")
	HarnessCellWall   = Default.Histogram("harness.cell_wall_ns", DurationBuckets)
	HarnessFlightRecs = Default.Counter("harness.flightrec_dumps")

	// Distributed campaign fabric (internal/fabric).
	FabricLeases        = Default.Counter("fabric.leases")
	FabricLeaseExpiries = Default.Counter("fabric.lease_expiries")
	FabricCellsMerged   = Default.Counter("fabric.cells_merged")
	FabricPoisoned      = Default.Counter("fabric.poisoned_cells")
	FabricWorkerCells   = Default.Counter("fabric.worker_cells")
)
