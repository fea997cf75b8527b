package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// parse the numeric cell (Mpps etc.) of a result row.
func cellFloat(t *testing.T, r Result, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.Fields(r.Rows[row][col])[0], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q: %v", r.ID, row, col, r.Rows[row][col], err)
	}
	return v
}

func TestTable1(t *testing.T) {
	r := Table1(Quick())
	if len(r.Rows) < 6 || !strings.Contains(r.String(), "Xeon") {
		t.Fatalf("table 1: %s", r)
	}
}

func TestFig3(t *testing.T) {
	r := Fig3(Quick())
	if got := r.Rows[0][1]; got != "7" {
		t.Fatalf("Fig 3 seq 1 entries = %s, want 7", got)
	}
	far, _ := strconv.Atoi(r.Rows[2][1])
	near, _ := strconv.Atoi(r.Rows[3][1])
	if far >= near {
		t.Fatalf("Fig 3 traffic dependence missing: far=%d near=%d", far, near)
	}
}

func TestFig9Crossover(t *testing.T) {
	r := Fig9(Quick())
	if len(r.Rows) < 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Direct code must be cheapest at 1 entry and more expensive than the
	// hash template by the last row; hash stays roughly flat.
	direct1 := cellFloat(t, r, 0, 1)
	hash1 := cellFloat(t, r, 0, 2)
	directN := cellFloat(t, r, len(r.Rows)-1, 1)
	hashN := cellFloat(t, r, len(r.Rows)-1, 2)
	if direct1 >= hash1 {
		t.Fatalf("direct code should win for a single entry: direct=%v hash=%v", direct1, hash1)
	}
	if directN <= hashN {
		t.Fatalf("hash should win for larger tables: direct=%v hash=%v", directN, hashN)
	}
	if hashN > hash1*1.25 {
		t.Fatalf("hash cost should stay roughly constant: %v -> %v", hash1, hashN)
	}
}

func TestFig10Shape(t *testing.T) {
	cfg := Quick()
	r := Fig10(cfg)
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	last := len(r.Rows) - 1
	// With many active flows ESWITCH must beat the flow-caching baseline
	// on every table size (columns alternate ES/OVS).
	for col := 1; col < len(r.Header); col += 2 {
		es := cellFloat(t, r, last, col)
		ovs := cellFloat(t, r, last, col+1)
		if es <= ovs {
			t.Fatalf("at %s flows, ES (%v) should outperform OVS (%v) in column %s", r.Rows[last][0], es, ovs, r.Header[col])
		}
	}
}

func TestFig13GatewayShape(t *testing.T) {
	cfg := Quick()
	r := Fig13(cfg)
	last := len(r.Rows) - 1
	esFirst, esLast := cellFloat(t, r, 0, 1), cellFloat(t, r, last, 1)
	ovsFirst, ovsLast := cellFloat(t, r, 0, 3), cellFloat(t, r, last, 3)
	if esLast < esFirst*0.5 {
		t.Fatalf("ES gateway rate should stay robust: %v -> %v", esFirst, esLast)
	}
	if ovsLast >= ovsFirst {
		t.Fatalf("OVS gateway rate should degrade with flows: %v -> %v", ovsFirst, ovsLast)
	}
	if esLast <= ovsLast {
		t.Fatalf("ES should beat OVS at high flow counts: %v vs %v", esLast, ovsLast)
	}
	// The ES rate must fall within (or near) the analytic bounds.
	ub := cellFloat(t, r, 0, 5)
	lb := cellFloat(t, r, 0, 6)
	if esFirst > ub*1.25 || esFirst < lb*0.5 {
		t.Fatalf("ES rate %v far outside model bounds [%v, %v]", esFirst, lb, ub)
	}
}

func TestFig14LevelsShiftDown(t *testing.T) {
	r := Fig14(Quick())
	first, last := 0, len(r.Rows)-1
	microFirst := cellFloat(t, r, first, 1)
	microLast := cellFloat(t, r, last, 1)
	if microLast >= microFirst {
		t.Fatalf("microflow share should fall as flows grow: %v -> %v", microFirst, microLast)
	}
	// Shares sum to ~1 in every row.
	for i := range r.Rows {
		sum := cellFloat(t, r, i, 1) + cellFloat(t, r, i, 2) + cellFloat(t, r, i, 3)
		if sum < 0.98 || sum > 1.02 {
			t.Fatalf("row %d shares sum to %v", i, sum)
		}
	}
}

func TestFig17InstallPaths(t *testing.T) {
	r := Fig17(Quick())
	if len(r.Rows) < 3 {
		t.Fatal("too few rows")
	}
	// Installation times grow with the number of services.
	firstCLI := cellFloat(t, r, 0, 1)
	lastCLI := cellFloat(t, r, len(r.Rows)-1, 1)
	if lastCLI < firstCLI {
		t.Fatalf("install time should grow with services: %v -> %v", firstCLI, lastCLI)
	}
	// The control channel is slower than the direct path.
	for i := range r.Rows {
		if cellFloat(t, r, i, 2) < cellFloat(t, r, i, 1) {
			t.Fatalf("row %d: channel install faster than direct install", i)
		}
	}
}

func TestFig18UpdateRobustness(t *testing.T) {
	r := Fig18(Quick())
	last := len(r.Rows) - 1
	es := cellFloat(t, r, last, 1)
	ovs := cellFloat(t, r, last, 2)
	if es < ovs {
		t.Fatalf("ES should retain more of its rate under updates: ES=%v OVS=%v", es, ovs)
	}
	if es < 0.5 {
		t.Fatalf("ES should keep most of its unloaded rate, got %v", es)
	}
}

func TestFig19Scaling(t *testing.T) {
	r := Fig19(Quick())
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// Aggregate rate grows linearly with cores; ES beats OVS per core.
	oneCoreES := cellFloat(t, r, 0, 1)
	fiveCoreES := cellFloat(t, r, 4, 1)
	if fiveCoreES < oneCoreES*4.5 {
		t.Fatalf("ES should scale linearly: %v -> %v", oneCoreES, fiveCoreES)
	}
	if oneCoreES <= cellFloat(t, r, 0, 2) {
		t.Fatalf("ES per-core rate should beat OVS: %v vs %v", oneCoreES, cellFloat(t, r, 0, 2))
	}
}

func TestFig20Model(t *testing.T) {
	r := Fig20(Quick())
	s := r.String()
	for _, want := range []string{"166+3*Lx", "11.2", "7.91"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Fig 20 output missing %q:\n%s", want, s)
		}
	}
}

func TestDecomposition(t *testing.T) {
	r := Decomposition(Quick())
	if len(r.Rows) < 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	// ACL decompositions produce multiple tables but far fewer than one per
	// rule would suggest for the decision tree's leaves.
	small, _ := strconv.Atoi(r.Rows[0][2])
	big, _ := strconv.Atoi(r.Rows[1][2])
	if small < 2 || big <= small {
		t.Fatalf("ACL decomposition counts implausible: %d, %d", small, big)
	}
	for _, row := range r.Rows[2:] {
		if !strings.Contains(row[2], "true") {
			t.Fatalf("production-style pipeline was modified: %v", row)
		}
	}
}

func TestFig19MeasuredScaling(t *testing.T) {
	r := Fig19Measured(Quick())
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if v := cellFloat(t, r, i, 1); v <= 0 {
			t.Fatalf("row %d (%v): non-positive measured rate %v", i, row, v)
		}
	}
}

func TestFlowSetupRateClosedLoop(t *testing.T) {
	h, err := NewChaosHarness(ChaosConfig{Hosts: 48})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Converge(64, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if h.Learner.FlowMods() == 0 {
		t.Fatal("reactive loop installed no flows")
	}
	start := time.Now()
	_, punts := h.MeasureForwarding(5000)
	mpps := 5000 / time.Since(start).Seconds() / 1e6
	if punts != 0 {
		t.Fatalf("post-convergence punts: %d", punts)
	}
	if mpps <= 0 {
		t.Fatalf("mpps = %v", mpps)
	}
	st := h.SW.Stats()
	if h.Service().Delivered()+st.PuntDrops != st.ToCtrl {
		t.Fatalf("accounting: delivered %d + drops %d != toCtrl %d", h.Service().Delivered(), st.PuntDrops, st.ToCtrl)
	}
}
