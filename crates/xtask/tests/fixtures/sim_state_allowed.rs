// Fixture: sim-shared-state violations fully covered by verified allow
// directives. Every directive must carry a reason; a reason-less or
// unused directive is a hard error (see lint_fixtures.rs).
// lint: allow(sim-shared-state) reason=codec dispatch table that is immutable after compile time
static DECODE_TABLE: [u8; 16] = [0; 16];

struct DebugProbe {
    // lint: allow(sim-shared-state) reason=debug-only probe compiled out of release; owned by one simulation
    trace: std::cell::RefCell<Vec<u64>>,
}
