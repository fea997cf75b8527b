// Command eswitch-decompose demonstrates the flow-table decomposition pass of
// §3.2: it builds a single-table pipeline (a synthetic ACL set or the paper's
// load-balancer), runs the decomposer and reports the resulting multi-stage
// pipeline and the templates each stage compiles into.  The decomposer only
// rewrites a table the linked-list template would take: the load balancer
// compiles to one compound hash with a direct-code tail, and stays one table.
//
// Usage:
//
//	eswitch-decompose [-input acl|loadbalancer|fig5] [-rules 72] [-services 10] [-verbose]
package main

import (
	"flag"
	"fmt"
	"os"

	"eswitch/internal/core"
	"eswitch/internal/openflow"
	"eswitch/internal/pkt"
	"eswitch/internal/workload"
)

func fig5Pipeline() *openflow.Pipeline {
	ipA := uint64(pkt.IPv4FromOctets(192, 0, 2, 1))
	ipB := uint64(pkt.IPv4FromOctets(192, 0, 2, 2))
	ipC := uint64(pkt.IPv4FromOctets(192, 0, 2, 3))
	pl := openflow.NewPipeline(8)
	t := pl.Table(0)
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
	return pl
}

func main() {
	input := flag.String("input", "acl", "input pipeline: acl, loadbalancer or fig5")
	rules := flag.Int("rules", 72, "number of synthetic ACL rules (input=acl)")
	services := flag.Int("services", 10, "number of web services (input=loadbalancer)")
	verbose := flag.Bool("verbose", false, "print the decomposed pipeline")
	flag.Parse()

	var pl *openflow.Pipeline
	switch *input {
	case "acl":
		pl = workload.ACLPipeline(workload.GenerateACLs(*rules, 11))
	case "loadbalancer":
		pl = workload.LoadBalancerUseCase(*services).Pipeline
	case "fig5":
		pl = fig5Pipeline()
	default:
		fmt.Fprintf(os.Stderr, "unknown input %q\n", *input)
		os.Exit(2)
	}

	opts := core.DefaultOptions()
	opts.Decompose = true
	fmt.Printf("input: %d table(s), %d flow entries\n", pl.NumTables(), pl.NumEntries())

	// The datapath takes pl over and executes the decomposed pipeline, which
	// only adds tables to pl's.
	tables := pl.NumTables()
	dp, err := core.Compile(pl, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compile: %v\n", err)
		os.Exit(1)
	}
	decomposed := dp.Pipeline()
	fmt.Printf("decomposed: %d table(s) (%d added), %d flow entries\n",
		decomposed.NumTables(), decomposed.NumTables()-tables, decomposed.NumEntries())

	byTemplate := map[core.TemplateKind]int{}
	for _, st := range dp.Stages() {
		byTemplate[st.Template]++
	}
	fmt.Println("compiled stage templates:")
	for _, k := range []core.TemplateKind{core.TemplateDirectCode, core.TemplateHash, core.TemplateLPM, core.TemplateLinkedList} {
		fmt.Printf("  %-14s %d\n", k, byTemplate[k])
	}
	if *verbose {
		fmt.Println()
		fmt.Println(decomposed)
	}
}
