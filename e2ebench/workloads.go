package main

import (
	"fmt"

	"forwarddecay/bench"
	"forwarddecay/netgen"
)

// framePkts is the packets per data frame, the ingest Dialer's default batch.
const framePkts = 256

// closedWindow is the closed loop's bound on unacked frames, the ingest
// Dialer's default window (32 frames × framePkts packets).
const closedWindow = 32

// closedChunks is how many equal runs of frames the closed loop's rate is
// taken over.
const closedChunks = 10

// workload is one traffic mix: a standing catalog, how its packet stream
// is made from the seed, the server's shard count, and the absolute offered
// rate of the fixed-rate phase. The rate is a constant, never derived from
// a measured capacity, so a faster build cannot change its own load. Each
// keeps the server between a sixth and a third of a core busy on the host
// the benchmark was defined on, so latencies measure the pipeline, not a
// queue that host contention tips into growing.
type workload struct {
	name    string
	queries []string
	// shards is the gsql -serve -shards value (0 = serial members).
	shards int
	// rate is the fixed-rate phase's offered load in packets per second.
	rate float64
	// closedRate sizes the closed loop's fixed work: the packets this rate
	// delivers in 30% of the run (about the capacity measured when the
	// benchmark was defined; a faster server finishes the work sooner).
	closedRate float64
	// countCol is the count(*) column of the catalog's filtered queries,
	// used to count their member folds; -1 when no query has a WHERE.
	countCol int
	// packets returns the stream's packet source for a seed.
	packets func(seed uint64) func() netgen.Packet
}

var workloads = map[string]*workload{
	"catalog-1000": {
		name:       "catalog-1000",
		queries:    catalogQueries(1000),
		rate:       50_000,
		closedRate: 260_000,
		countCol:   2,
		packets:    multiScalePackets,
	},
	"decay-fig2": {
		name:       "decay-fig2",
		queries:    []string{qUndecayed, qFwdPoly, qFwdExp},
		shards:     2,
		rate:       30_000,
		closedRate: 170_000,
		countCol:   -1,
		packets:    linkPackets,
	},
	"fanout-200": {
		name:       "fanout-200",
		queries:    fanoutQueries(200),
		rate:       5_000,
		closedRate: 45_000,
		countCol:   2,
		packets:    fanoutPackets,
	},
}

func catalogQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = bench.MultiScaleQuery(i)
	}
	return qs
}

// multiScalePackets mirrors the trace of bench/multiscale.go: 1000 packets
// per stream second with destinations cycling a 4096-address space, so each
// of the catalog's four predicate classes matches about 1 tuple in 4096.
func multiScalePackets(seed uint64) func() netgen.Packet {
	x := seed*2654435761 + 1
	j := 0
	return func() netgen.Packet {
		x = x*6364136223846793005 + 1442695040888963407
		p := netgen.Packet{
			Time:  float64(j) / 1000,
			SrcIP: uint32(x >> 33 & 0xffff), DstIP: uint32(x >> 17 & 4095),
			SrcPort: 4242, DstPort: 80, Proto: netgen.ProtoTCP,
			Len: uint16(100 + j%1400),
		}
		j++
		return p
	}
}

// The Figure 2 forward-decay catalog: the undecayed, forward poly(2) and
// forward exp texts of bench/fig2.go.
const (
	qUndecayed = `select tb, dstIP, destPort, count(*), sum(len)
	              from TCP group by time/60 as tb, dstIP, destPort`
	qFwdPoly = `select tb, dstIP, destPort,
	              sum(float((time % 60)*(time % 60)))/3600,
	              sum(float(len)*(time % 60)*(time % 60))/3600
	            from TCP group by time/60 as tb, dstIP, destPort`
	qFwdExp = `select tb, dstIP, destPort,
	              sum(exp(float(time % 60)/10)),
	              sum(float(len)*exp(float(time % 60)/10))
	            from TCP group by time/60 as tb, dstIP, destPort`
)

// linkStreamRate compresses stream time for decay-fig2: at 2000 packets
// per stream second a 60-s bucket holds 120k packets, so at the fixed rate
// one closes every two wall seconds.
const linkStreamRate = 2000

// linkPackets is the paper's link model (netgen.DefaultConfig: 20k Zipf-1.1
// hosts with 4 ports each) at the compressed stream rate.
func linkPackets(seed uint64) func() netgen.Packet {
	g := netgen.New(netgen.DefaultConfig(linkStreamRate, seed))
	return g.Next
}

// fanoutStreamRate sets fanout-200's rows per packet: every stream second
// closes 200 queries × 32 groups = 6400 rows, about 0.3 per packet.
const fanoutStreamRate = 20_000

// fanoutQueries renders n per-second queries over 8 predicate classes on
// destPort % 8, each with a private sum argument so no two texts share a
// plan.
func fanoutQueries(n int) []string {
	qs := make([]string, n)
	for i := range qs {
		qs[i] = fmt.Sprintf(
			"select tb, srcPort %% 32, count(*), sum(len + %d) from TCP where destPort %% 8 = %d group by time as tb, srcPort %% 32",
			i, i%8)
	}
	return qs
}

// fanoutPackets draws uniform ports and lengths at fanoutStreamRate, so
// each class sees 1/8 of the stream and every srcPort % 32 group is hit
// each stream second.
func fanoutPackets(seed uint64) func() netgen.Packet {
	x := seed*0x9e3779b97f4a7c15 + 7
	j := 0
	return func() netgen.Packet {
		x = x*6364136223846793005 + 1442695040888963407
		p := netgen.Packet{
			Time:  float64(j) / fanoutStreamRate,
			SrcIP: uint32(x >> 32), DstIP: uint32(x>>8) & 0xffffff,
			SrcPort: uint16(x >> 16), DstPort: uint16(x >> 48), Proto: netgen.ProtoTCP,
			Len: uint16(40 + (x>>40)%1460),
		}
		j++
		return p
	}
}
