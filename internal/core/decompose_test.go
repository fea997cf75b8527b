package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

// fig5Table builds the flow table of Fig. 5a (reconstructed from the paper's
// description): rules over ip_dst, tcp_dst and in_port where the tcp_dst
// column has the minimal diversity (2 distinct keys), so the optimal
// decomposition has 4 tables while a decomposition along ip_dst (3 distinct
// keys) is larger.
func fig5Table() *openflow.FlowTable {
	ipA := uint64(pkt.IPv4FromOctets(192, 0, 2, 1))
	ipB := uint64(pkt.IPv4FromOctets(192, 0, 2, 2))
	ipC := uint64(pkt.IPv4FromOctets(192, 0, 2, 3))
	t := openflow.NewFlowTable(0)
	add := func(prio int, ip uint64, port uint64, in uint64, out uint32) {
		m := openflow.NewMatch()
		if ip != 0 {
			m.Set(openflow.FieldIPDst, ip)
		}
		if port != 0 {
			m.Set(openflow.FieldTCPDst, port)
		}
		if in != 0 {
			m.Set(openflow.FieldInPort, in)
		}
		t.AddFlow(prio, m, openflow.Apply(openflow.Output(out)))
	}
	add(80, ipA, 80, 1, 1)
	add(70, ipA, 22, 2, 2)
	add(60, ipB, 80, 1, 3)
	add(50, ipB, 22, 0, 4)
	add(40, ipC, 80, 2, 5)
	add(30, ipC, 22, 1, 6)
	add(20, 0, 80, 2, 7)
	t.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
	return t
}

func TestDecomposableDetection(t *testing.T) {
	ft := openflow.NewFlowTable(0)
	ft.AddFlow(10, openflow.NewMatch().Set(openflow.FieldTCPDst, 80), openflow.Apply(openflow.Output(1)))
	if !decomposable(ft) {
		t.Fatal("exact-match table must be decomposable")
	}
	// A uniform per-column mask (here a /8 on ip_dst in every entry that
	// sets it) is still decomposable — the masked-key extension.
	ft.AddFlow(5, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0x0a000000, 8), openflow.Apply(openflow.Drop()))
	if !decomposable(ft) {
		t.Fatal("uniformly masked rules must be decomposable")
	}
	// Two different masks on the same column are out of scope.
	ft.AddFlow(3, openflow.NewMatch().SetPrefix(openflow.FieldIPDst, 0x0a000000, 16), openflow.Apply(openflow.Drop()))
	if decomposable(ft) {
		t.Fatal("mixed masks on one column must not be decomposable")
	}
}

func TestDecomposeChoosesMinimalDiversityColumn(t *testing.T) {
	src := fig5Table()
	pl := openflow.NewPipeline(8)
	for _, e := range src.Entries() {
		pl.Table(0).Add(e.Clone())
	}
	opts := DefaultOptions()
	opts.DirectCodeMaxEntries = 2 // force decomposition interest for this small example
	decomposed, extra := DecomposePipeline(pl, opts)
	if extra == 0 {
		t.Fatal("the Fig. 5 table should be decomposed")
	}
	// Decomposing along tcp_dst (diversity 2) yields 2 sub-tables at the
	// first level; along ip_dst (diversity 3) it would yield at least 3.
	// The dispatch table (table 0) must therefore have at most 3 entries
	// (2 port keys + catch-all path).
	if got := decomposed.Table(0).Len(); got > 3 {
		t.Fatalf("dispatch table has %d entries; expected decomposition along the minimal-diversity column (tcp_dst)", got)
	}
	if err := decomposed.Validate(); err != nil {
		t.Fatalf("decomposed pipeline invalid: %v", err)
	}
}

// TestDecomposeSemanticEquivalence verifies that decomposition preserves
// forwarding behaviour on exhaustive traffic over the Fig. 5 table.
func TestDecomposeSemanticEquivalence(t *testing.T) {
	src := fig5Table()
	pl := openflow.NewPipeline(8)
	for _, e := range src.Entries() {
		pl.Table(0).Add(e.Clone())
	}
	opts := DefaultOptions()
	opts.DirectCodeMaxEntries = 2
	decomposed, _ := DecomposePipeline(pl, opts)

	inOrig := openflow.NewInterpreter(pl)
	inDec := openflow.NewInterpreter(decomposed)
	ips := []pkt.IPv4{
		pkt.IPv4FromOctets(192, 0, 2, 1), pkt.IPv4FromOctets(192, 0, 2, 2),
		pkt.IPv4FromOctets(192, 0, 2, 3), pkt.IPv4FromOctets(192, 0, 2, 4),
	}
	ports := []uint16{80, 22, 443}
	inPorts := []uint32{1, 2, 3}
	b := pkt.NewBuilder(128)
	for _, ip := range ips {
		for _, port := range ports {
			for _, inPort := range inPorts {
				frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{}, pkt.IPv4Opts{Src: 1, Dst: ip}, pkt.L4Opts{Src: 9999, Dst: port}))
				p1 := &pkt.Packet{Data: frame, InPort: inPort}
				p2 := &pkt.Packet{Data: append([]byte(nil), frame...), InPort: inPort}
				var v1, v2 openflow.Verdict
				inOrig.Process(p1, &v1, nil)
				inDec.Process(p2, &v2, nil)
				if !v1.Equivalent(&v2) {
					t.Fatalf("ip=%v port=%d in=%d: original=%v decomposed=%v\n%s", ip, port, inPort, v1.String(), v2.String(), decomposed)
				}
			}
		}
	}
}

// TestDecomposeRandomEquivalence fuzzes the decomposer with random
// exact-match-or-wildcard tables and checks observational equivalence.
func TestDecomposeRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	fields := []openflow.Field{openflow.FieldInPort, openflow.FieldTCPDst, openflow.FieldIPSrc, openflow.FieldIPDst}
	for trial := 0; trial < 20; trial++ {
		pl := openflow.NewPipeline(4)
		tbl := pl.Table(0)
		n := 5 + rng.Intn(15)
		for i := 0; i < n; i++ {
			m := openflow.NewMatch()
			for _, f := range fields {
				if rng.Intn(2) == 0 {
					m.Set(f, uint64(rng.Intn(3)))
				}
			}
			tbl.AddFlow(rng.Intn(100), m, openflow.Apply(openflow.Output(uint32(1+rng.Intn(4)))))
		}
		tbl.AddFlow(-1, openflow.NewMatch(), openflow.Apply(openflow.Drop()))
		opts := DefaultOptions()
		opts.DirectCodeMaxEntries = 2
		decomposed, _ := DecomposePipeline(pl, opts)
		if err := decomposed.Validate(); err != nil {
			t.Fatalf("trial %d: invalid decomposition: %v", trial, err)
		}
		inOrig := openflow.NewInterpreter(pl)
		inDec := openflow.NewInterpreter(decomposed)
		b := pkt.NewBuilder(128)
		for probe := 0; probe < 200; probe++ {
			frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
				pkt.IPv4Opts{Src: pkt.IPv4(rng.Intn(3)), Dst: pkt.IPv4(rng.Intn(3))},
				pkt.L4Opts{Src: 1, Dst: uint16(rng.Intn(3))}))
			inPort := uint32(rng.Intn(3))
			p1 := &pkt.Packet{Data: frame, InPort: inPort}
			p2 := &pkt.Packet{Data: append([]byte(nil), frame...), InPort: inPort}
			var v1, v2 openflow.Verdict
			inOrig.Process(p1, &v1, nil)
			inDec.Process(p2, &v2, nil)
			if !v1.Equivalent(&v2) {
				t.Fatalf("trial %d probe %d: original=%v decomposed=%v\noriginal:\n%s\ndecomposed:\n%s",
					trial, probe, v1.String(), v2.String(), pl, decomposed)
			}
		}
	}
}

// TestDecomposePromotesToFastTemplates checks the end goal: after
// decomposition plus compilation, no stage of an exact-match pipeline is left
// on the linked-list template (the paper's firewall promotion example).
func TestDecomposePromotesToFastTemplates(t *testing.T) {
	pl := openflow.NewPipeline(8)
	tbl := pl.Table(0)
	// A single-stage "firewall" matching heterogeneous exact fields.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		m := openflow.NewMatch().
			Set(openflow.FieldIPSrc, uint64(rng.Intn(5))).
			Set(openflow.FieldTCPDst, uint64([]int{22, 80, 443}[rng.Intn(3)]))
		if rng.Intn(2) == 0 {
			m.Set(openflow.FieldInPort, uint64(1+rng.Intn(2)))
		}
		tbl.AddFlow(100-i, m, openflow.Apply(openflow.Output(uint32(1+i%4))))
	}
	tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Drop()))

	opts := DefaultOptions()
	opts.Decompose = true
	dp, err := Compile(pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dp.DecomposedTables() == 0 {
		t.Fatal("expected decomposition to kick in")
	}
	for _, st := range dp.Stages() {
		if st.Template == TemplateLinkedList {
			t.Fatalf("stage %d (%d entries) left on the linked-list template", st.ID, st.Entries)
		}
	}
	// And the compiled pipeline still matches the original semantics.
	in := openflow.NewInterpreter(pl)
	b := pkt.NewBuilder(128)
	for probe := 0; probe < 300; probe++ {
		frame := pkt.Clone(b.TCPPacket(pkt.EthernetOpts{},
			pkt.IPv4Opts{Src: pkt.IPv4(rng.Intn(6)), Dst: 9},
			pkt.L4Opts{Src: 1, Dst: uint16([]int{22, 80, 443, 8080}[rng.Intn(4)])}))
		inPort := uint32(1 + rng.Intn(3))
		p1 := &pkt.Packet{Data: frame, InPort: inPort}
		p2 := &pkt.Packet{Data: append([]byte(nil), frame...), InPort: inPort}
		var v1, v2 openflow.Verdict
		in.Process(p1, &v1, nil)
		dp.Process(p2, &v2)
		if !v1.Equivalent(&v2) {
			t.Fatalf("probe %d: interpreter=%v eswitch=%v", probe, v1.String(), v2.String())
		}
	}
}

// TestDecomposedFlowModsFollowSource issues seeded adds and deletes against a
// decomposed ACL — lower-priority adds on the ACL's own servers, sources and
// ports among them, which overlap the stages the decomposer derived — and
// after every mod requires each frame's outcome to be the interpreter's over
// the source pipeline plus the same mods.  A mod names a table of the
// source: applied to the decomposed table of that ID, a low-priority entry
// would shadow the rules moved into derived tables.
func TestDecomposedFlowModsFollowSource(t *testing.T) {
	uc := decomposedACL()
	src := uc.Pipeline // the interpreter's; the datapath takes a copy over
	opts := DefaultOptions()
	opts.Decompose = true
	dp, err := Compile(src.Clone(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if dp.DecomposedTables() == 0 {
		t.Fatal("the ACL did not decompose")
	}
	tr := uc.Trace(200)
	in := openflow.NewInterpreter(src)
	in.UpdateCounters = false
	rng := rand.New(rand.NewSource(7))
	servers := []uint64{uint64(pkt.IPv4FromOctets(192, 0, 2, 10)), uint64(pkt.IPv4FromOctets(192, 0, 2, 13)), uint64(pkt.IPv4FromOctets(192, 0, 2, 15))}
	sources := []uint64{uint64(pkt.IPv4FromOctets(203, 0, 113, 1)), uint64(pkt.IPv4FromOctets(203, 0, 113, 4))}
	for mod := 0; mod < 60; mod++ {
		var what string
		t0 := src.Table(0)
		if es := t0.Entries(); rng.Intn(3) == 0 && len(es) > 1 {
			victim := es[rng.Intn(len(es))]
			prio := victim.Priority
			if rng.Intn(3) == 0 {
				prio = -1
			}
			match := victim.Match.Clone()
			want := t0.Delete(match, prio)
			n, err := dp.DeleteFlow(0, match, prio)
			if err != nil || n != want {
				t.Fatalf("mod %d: delete %v (priority %d) removed %d (%v), the source %d", mod, match, prio, n, err, want)
			}
			what = fmt.Sprintf("delete %v priority %d", match, prio)
		} else {
			m := openflow.NewMatch()
			for m.IsEmpty() {
				if rng.Intn(2) == 0 {
					m.Set(openflow.FieldIPDst, servers[rng.Intn(len(servers))])
				}
				if rng.Intn(3) == 0 {
					m.Set(openflow.FieldIPSrc, sources[rng.Intn(len(sources))])
				}
				if rng.Intn(2) == 0 {
					m.Set([]openflow.Field{openflow.FieldTCPDst, openflow.FieldUDPDst}[rng.Intn(2)], []uint64{22, 25, 80, 443}[rng.Intn(4)])
				}
			}
			e := openflow.NewEntry(1+rng.Intn(40), m, openflow.Apply(openflow.Output(uint32(1+rng.Intn(2)))))
			t0.Add(e.Clone())
			if err := dp.AddFlow(0, e); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("add %v", e)
		}
		for i := 0; i < 200; i++ {
			frame, port := tr.Frame(i)
			var got, want openflow.Verdict
			dp.Process(&pkt.Packet{Data: frame, InPort: port}, &got)
			in.Process(&pkt.Packet{Data: frame, InPort: port}, &want, nil)
			if !got.Equivalent(&want) {
				t.Fatalf("after mod %d (%s): frame %d: datapath %s, interpreter over the source %s", mod, what, i, &got, &want)
			}
		}
	}
}

// TestDecomposeIsDeterministic decomposes one ACL twice and requires the same
// stages: the table IDs the decomposer hands out, their templates and their
// entry counts.  Taking the column's keys in map order numbered the derived
// tables differently from one run to the next.
func TestDecomposeIsDeterministic(t *testing.T) {
	stages := func() []TableStage {
		opts := DefaultOptions()
		opts.Decompose = true
		dp, err := Compile(workload.ACLPipeline(workload.GenerateACLs(20, 11)), opts)
		if err != nil {
			t.Fatal(err)
		}
		if dp.DecomposedTables() == 0 {
			t.Fatal("the ACL was not decomposed")
		}
		return dp.Stages()
	}
	first := stages()
	for run := 1; run < 4; run++ {
		if got := stages(); !slices.Equal(got, first) {
			t.Fatalf("run %d decomposed to %v, run 0 to %v", run, got, first)
		}
	}
}

func TestDecomposeNoOpForWellFormedPipelines(t *testing.T) {
	// A MAC table and an LPM table are already optimal; decomposition must
	// return them intact (the paper's observation about production
	// pipelines).
	pl := macPipeline(100)
	decomposed, extra := DecomposePipeline(pl, DefaultOptions())
	if extra != 0 || decomposed.NumTables() != pl.NumTables() {
		t.Fatalf("MAC pipeline should be untouched, got %d extra tables", extra)
	}
}

// --- REGDECOMP / 3SAT reduction (Appendix) ------------------------------------

func TestRegDecompReduction(t *testing.T) {
	// Example from the Appendix: (X1 ∨ ¬X3 ∨ X4) ∧ (¬X1 ∨ X2 ∨ X3) is
	// satisfiable, so the clause table must NOT be equivalent to the
	// single regular Y-table.
	satisfiable := Formula{
		NumVars: 4,
		Clauses: []Clause{
			{Literal{1, false}, Literal{3, true}, Literal{4, false}},
			{Literal{1, true}, Literal{2, false}, Literal{3, false}},
		},
	}
	if !satisfiable.Satisfiable() {
		t.Fatal("test formula should be satisfiable")
	}
	equiv, err := RegDecompEquivalent(satisfiable)
	if err != nil {
		t.Fatal(err)
	}
	if equiv {
		t.Fatal("satisfiable formula must not yield an equivalent single-table decomposition")
	}

	// An unsatisfiable formula: (x1 ∨ x1 ∨ x2) ∧ (¬x1 ∨ ¬x1 ∨ x2) ∧
	// (x1 ∨ x1 ∨ ¬x2) ∧ (¬x1 ∨ ¬x1 ∨ ¬x2).
	unsat := Formula{
		NumVars: 2,
		Clauses: []Clause{
			{Literal{1, false}, Literal{1, false}, Literal{2, false}},
			{Literal{1, true}, Literal{1, true}, Literal{2, false}},
			{Literal{1, false}, Literal{1, false}, Literal{2, true}},
			{Literal{1, true}, Literal{1, true}, Literal{2, true}},
		},
	}
	if unsat.Satisfiable() {
		t.Fatal("test formula should be unsatisfiable")
	}
	equiv, err = RegDecompEquivalent(unsat)
	if err != nil {
		t.Fatal(err)
	}
	if !equiv {
		t.Fatal("unsatisfiable formula must yield an equivalent single-table decomposition")
	}
}

func TestRegDecompRejectsTooManyVariables(t *testing.T) {
	f := Formula{NumVars: 40, Clauses: []Clause{{Literal{1, false}, Literal{2, false}, Literal{3, false}}}}
	if _, err := BuildRegDecompTable(f); err == nil {
		t.Fatal("oversized variable count must be rejected")
	}
}

// BenchmarkDecomposeACL measures decomposition cost on a firewall-scale ACL.
func BenchmarkDecomposeACL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pl := openflow.NewPipeline(4)
	tbl := pl.Table(0)
	for i := 0; i < 72; i++ {
		m := openflow.NewMatch()
		if rng.Intn(2) == 0 {
			m.Set(openflow.FieldIPSrc, uint64(rng.Intn(16)))
		}
		if rng.Intn(2) == 0 {
			m.Set(openflow.FieldIPDst, uint64(rng.Intn(16)))
		}
		if rng.Intn(2) == 0 {
			m.Set(openflow.FieldTCPDst, uint64(rng.Intn(1024)))
		}
		if m.IsEmpty() {
			m.Set(openflow.FieldTCPDst, uint64(i))
		}
		tbl.AddFlow(1000-i, m, openflow.Apply(openflow.Drop()))
	}
	tbl.AddFlow(0, openflow.NewMatch(), openflow.Apply(openflow.Output(1)))
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecomposePipeline(pl, opts)
	}
}
