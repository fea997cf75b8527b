// Package perfmodel implements the analytic switch performance model of
// §4.4: a compiled datapath is a handful of templates linked together, so its
// per-packet cost decomposes into per-template "atoms" — a fixed cycle count
// plus a number of memory accesses whose latency depends on which CPU cache
// level serves them.  Composing the atoms yields closed-form best-case and
// worst-case throughput and latency estimates (the model-ub / model-lb curves
// of Figs. 13 and 16).
package perfmodel

import (
	"fmt"
	"strings"

	"eswitch/internal/core"
	"eswitch/internal/cpumodel"
)

// Stage is one pipeline stage's cost atom: fixed cycles plus memory accesses
// charged at the (assumed) cache latency Lx.
type Stage struct {
	Name string
	// Fixed is the constant cycle cost of the stage.
	Fixed int
	// MemAccesses is the number of Lx-dependent memory accesses.
	MemAccesses int
	// Comment mirrors the right-hand column of Fig. 20.
	Comment string
}

// Model is a composed per-packet cost model.
type Model struct {
	Name   string
	Stages []Stage
}

// FixedCycles returns the total fixed cycle cost (the "166" of the gateway
// model).
func (m Model) FixedCycles() int {
	total := 0
	for _, s := range m.Stages {
		total += s.Fixed
	}
	return total
}

// MemAccesses returns the total number of variable-latency accesses (the "3"
// of the gateway model's 166 + 3·Lx).
func (m Model) MemAccesses() int {
	total := 0
	for _, s := range m.Stages {
		total += s.MemAccesses
	}
	return total
}

// cyclesAt returns the per-packet cycles assuming every variable access is
// served with the given latency.
func (m Model) cyclesAt(latency int) float64 {
	return float64(m.FixedCycles() + m.MemAccesses()*latency)
}

// RateAt returns the single-core packet rate (packets/second) on the platform
// assuming the given access latency.
func (m Model) RateAt(p cpumodel.Platform, latency int) float64 {
	c := m.cyclesAt(latency)
	if c == 0 {
		return 0
	}
	return p.FreqGHz * 1e9 / c
}

// Bounds summarizes the model's optimistic / middle / pessimistic estimates,
// corresponding to all accesses hitting L1, L2 and L3 respectively.
type Bounds struct {
	UpperCycles, MidCycles, LowerCycles float64
	UpperRate, MidRate, LowerRate       float64
}

// Bounds evaluates the model on the platform.
func (m Model) Bounds(p cpumodel.Platform) Bounds {
	return Bounds{
		UpperCycles: m.cyclesAt(p.L1Lat),
		MidCycles:   m.cyclesAt(p.L2Lat),
		LowerCycles: m.cyclesAt(p.L3Lat),
		UpperRate:   m.RateAt(p, p.L1Lat),
		MidRate:     m.RateAt(p, p.L2Lat),
		LowerRate:   m.RateAt(p, p.L3Lat),
	}
}

// String renders the model like Fig. 20.
func (m Model) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:\n", m.Name)
	for _, s := range m.Stages {
		cost := fmt.Sprintf("%d", s.Fixed)
		if s.MemAccesses == 1 {
			cost = fmt.Sprintf("%d+Lx", s.Fixed)
		} else if s.MemAccesses > 1 {
			cost = fmt.Sprintf("%d+%d*Lx", s.Fixed, s.MemAccesses)
		}
		fmt.Fprintf(&sb, "  %-22s %-10s %s\n", s.Name, cost, s.Comment)
	}
	fmt.Fprintf(&sb, "  total: %d + %d*Lx cycles/packet\n", m.FixedCycles(), m.MemAccesses())
	return sb.String()
}

// GatewayModel returns the hand-derived model of Fig. 20 for the access
// gateway's user→network direction.
func GatewayModel() Model {
	return Model{
		Name: "gateway (user→network)",
		Stages: []Stage{
			{Name: "PKT_IN", Fixed: cpumodel.CostPktIO, Comment: "DPDK packet receive IO"},
			{Name: "parser template", Fixed: cpumodel.CostParser, Comment: "parse header fields"},
			{Name: "hash template 1", Fixed: cpumodel.CostHashFixed + 4, Comment: "Table 0 lookup (always L1)"},
			{Name: "hash template 2", Fixed: cpumodel.CostHashFixed, MemAccesses: 1, Comment: "per-CE table lookup"},
			{Name: "LPM template", Fixed: cpumodel.CostLPMFixed, MemAccesses: 2, Comment: "routing table LPM"},
			{Name: "action templates", Fixed: cpumodel.CostActions, Comment: "action set processing"},
			{Name: "PKT_OUT", Fixed: cpumodel.CostPktIO, Comment: "DPDK packet transmit IO"},
		},
	}
}

// FromStages derives a model automatically from a compiled ESWITCH datapath's
// table inventory: each template contributes its atom, and I/O, parsing and
// action processing contribute the fixed costs.  This is the "ESWITCH could
// be easily taught to derive such models automatically" direction the paper
// sketches in §5.
func FromStages(name string, stages []core.TableStage) Model {
	m := Model{Name: name}
	m.Stages = append(m.Stages,
		Stage{Name: "PKT_IN", Fixed: cpumodel.CostPktIO, Comment: "packet receive IO"},
		Stage{Name: "parser template", Fixed: cpumodel.CostParser, Comment: "parse header fields"},
	)
	for _, st := range stages {
		switch st.Template {
		case core.TemplateDirectCode:
			m.Stages = append(m.Stages, Stage{
				Name:    fmt.Sprintf("direct code (table %d)", st.ID),
				Fixed:   cpumodel.CostDirectFixed + cpumodel.CostDirectPerEntry*maxInt(st.Entries, 1),
				Comment: fmt.Sprintf("%d entries scanned in line", st.Entries),
			})
		case core.TemplateHash:
			m.Stages = append(m.Stages, Stage{
				Name:        fmt.Sprintf("compound hash (table %d)", st.ID),
				Fixed:       cpumodel.CostHashFixed,
				MemAccesses: 1,
				Comment:     fmt.Sprintf("%d entries, constant-time lookup", st.Entries),
			})
		case core.TemplateLPM:
			m.Stages = append(m.Stages, Stage{
				Name:        fmt.Sprintf("LPM (table %d)", st.ID),
				Fixed:       cpumodel.CostLPMFixed,
				MemAccesses: 2,
				Comment:     fmt.Sprintf("%d prefixes, DIR-24-8", st.Entries),
			})
		case core.TemplateLinkedList:
			m.Stages = append(m.Stages, Stage{
				Name:        fmt.Sprintf("linked list (table %d)", st.ID),
				Fixed:       cpumodel.CostTSSPerGroup,
				MemAccesses: 1,
				Comment:     fmt.Sprintf("%d entries, tuple space search", st.Entries),
			})
		}
	}
	m.Stages = append(m.Stages,
		Stage{Name: "action templates", Fixed: cpumodel.CostActions, Comment: "action set processing"},
		Stage{Name: "PKT_OUT", Fixed: cpumodel.CostPktIO, Comment: "packet transmit IO"},
	)
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
