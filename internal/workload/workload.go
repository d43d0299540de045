// Package workload generates the five I/O workloads of the paper's Table 1.
// The paper drives its testbed with Sysbench (OLTP, NTRX) and Filebench
// (Webserver, Varmail, Fileserver); this package substitutes seeded
// synthetic generators that reproduce the characteristics those benchmarks
// are used for: the read:write ratio, the I/O intensiveness (burst length
// and inter-request gaps), the availability of idle time for background GC,
// request sizes, and skewed page-access locality.
package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"flexftl/internal/rng"
	"flexftl/internal/sim"
)

// Op is the request direction.
type Op uint8

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpTrim
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "R"
	case OpTrim:
		return "T"
	default:
		return "W"
	}
}

// Request is one host I/O: Pages logical pages starting at Page.
type Request struct {
	Arrival sim.Time
	Op      Op
	Page    int64 // first logical page
	Pages   int   // request length in pages
}

// Generator streams a deterministic request sequence with nondecreasing
// arrival times.
type Generator interface {
	// Next returns the next request, or ok=false when the workload ends.
	Next() (Request, bool)
	// Name identifies the workload.
	Name() string
}

// Intensity buckets of Table 1.
type Intensity int

// Table 1 intensiveness labels.
const (
	IntensityModerate Intensity = iota
	IntensityHigh
	IntensityVeryHigh
)

// String renders the Table 1 label.
func (i Intensity) String() string {
	switch i {
	case IntensityModerate:
		return "Moderate"
	case IntensityHigh:
		return "High"
	default:
		return "Very high"
	}
}

// Profile parameterizes a synthetic workload.
type Profile struct {
	Name         string
	ReadFraction float64   // fraction of requests that are reads
	Intensity    Intensity // Table 1 label (documentation; the gaps below encode it)

	// Arrival process: requests come in bursts. Burst lengths are
	// geometric with mean BurstLen; requests within a burst are spaced by
	// exponential gaps of mean IntraGap; bursts are separated by
	// exponential idle gaps of mean IdleGap.
	BurstLen int
	IntraGap sim.Time
	IdleGap  sim.Time

	// Request sizes in pages: geometric with mean PagesMean, capped at
	// PagesCap.
	PagesMean float64
	PagesCap  int

	// Locality: writes target a Zipf(theta) distribution over the logical
	// space; reads target previously written pages.
	ZipfTheta float64

	// TrimFraction of requests are host discards (file deletions),
	// targeting previously written pages. Mail and file servers delete
	// regularly; database workloads do not.
	TrimFraction float64
}

// Validate rejects unusable profiles.
func (p Profile) Validate() error {
	switch {
	case p.ReadFraction < 0 || p.ReadFraction > 1:
		return fmt.Errorf("workload: read fraction %v outside [0,1]", p.ReadFraction)
	case p.BurstLen < 1:
		return fmt.Errorf("workload: burst length %d < 1", p.BurstLen)
	case p.IntraGap < 0 || p.IdleGap < 0:
		return fmt.Errorf("workload: negative gaps")
	case p.PagesMean < 1 || p.PagesCap < 1:
		return fmt.Errorf("workload: page size parameters must be >= 1")
	case p.ZipfTheta <= 0 || p.ZipfTheta == 1:
		return fmt.Errorf("workload: zipf theta %v invalid", p.ZipfTheta)
	case p.TrimFraction < 0 || p.TrimFraction+p.ReadFraction > 1:
		return fmt.Errorf("workload: trim fraction %v leaves no room for writes", p.TrimFraction)
	}
	return nil
}

// The five Table 1 profiles. Gaps are tuned so that OLTP/NTRX leave almost
// no idle time, Webserver leaves large idle windows, and Varmail/Fileserver
// leave a fair amount — the property the paper's background GC depends on.

// OLTP is the Sysbench OLTP substitute: read-dominant (7:3), very high
// intensity, almost no idle time.
func OLTP() Profile {
	return Profile{
		Name: "OLTP", ReadFraction: 0.7, Intensity: IntensityVeryHigh,
		BurstLen: 512, IntraGap: 150 * sim.Microsecond, IdleGap: 2 * sim.Millisecond,
		PagesMean: 1.5, PagesCap: 4, ZipfTheta: 0.99,
	}
}

// NTRX is the Sysbench non-transactional substitute: write-dominant (3:7),
// very high intensity, almost no idle time.
func NTRX() Profile {
	return Profile{
		Name: "NTRX", ReadFraction: 0.3, Intensity: IntensityVeryHigh,
		BurstLen: 512, IntraGap: 150 * sim.Microsecond, IdleGap: 2 * sim.Millisecond,
		PagesMean: 1.5, PagesCap: 4, ZipfTheta: 0.99,
	}
}

// Webserver is the Filebench webserver substitute: read-dominant (4:1),
// moderate intensity with large idle times.
func Webserver() Profile {
	return Profile{
		Name: "Webserver", ReadFraction: 0.8, Intensity: IntensityModerate,
		BurstLen: 48, IntraGap: 400 * sim.Microsecond, IdleGap: 1000 * sim.Millisecond,
		PagesMean: 2, PagesCap: 8, ZipfTheta: 0.9, TrimFraction: 0.02,
	}
}

// Varmail is the Filebench mail-server substitute: balanced (1:1),
// write-bursty with a fair amount of idle time.
func Varmail() Profile {
	return Profile{
		Name: "Varmail", ReadFraction: 0.5, Intensity: IntensityHigh,
		BurstLen: 256, IntraGap: 60 * sim.Microsecond, IdleGap: 800 * sim.Millisecond,
		PagesMean: 1.5, PagesCap: 4, ZipfTheta: 1.05, TrimFraction: 0.05,
	}
}

// Fileserver is the Filebench file-server substitute: write-dominant (1:2),
// bursty with a fair amount of idle time and larger requests.
func Fileserver() Profile {
	return Profile{
		Name: "Fileserver", ReadFraction: 1.0 / 3.0, Intensity: IntensityHigh,
		BurstLen: 256, IntraGap: 120 * sim.Microsecond, IdleGap: 1500 * sim.Millisecond,
		PagesMean: 3, PagesCap: 16, ZipfTheta: 1.05, TrimFraction: 0.05,
	}
}

// All returns the five Table 1 workloads in paper order.
func All() []Profile {
	return []Profile{OLTP(), NTRX(), Webserver(), Varmail(), Fileserver()}
}

// FindProfile resolves a workload name: a Table 1 profile (any case), or the
// skewed placement-study workload parameterized by its Zipf theta — "zipf"
// (the default 0.99 skew), "zipf-1.10" or "zipf:1.10".
func FindProfile(name string) (Profile, error) {
	for _, p := range All() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	if lower := strings.ToLower(name); strings.HasPrefix(lower, "zipf") {
		theta := 0.99
		if rest := strings.TrimLeft(lower[len("zipf"):], ":-="); rest != "" {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				return Profile{}, fmt.Errorf("bad zipf theta in workload %q: %v", name, err)
			}
			theta = v
		}
		p := ZipfProfile(theta)
		return p, p.Validate()
	}
	return Profile{}, fmt.Errorf("unknown workload %q (profiles: OLTP, NTRX, Webserver, Varmail, Fileserver, zipf[-THETA])", name)
}

// ZipfProfile returns the skewed write-dominant workload the placement-axis
// studies sweep: Table-1-compatible arrival, burst and request-size
// parameters (the NTRX envelope, so GC pressure builds quickly), no trims,
// and a caller-chosen Zipf theta dialing the locality from near-uniform
// (0.5) to hot-head (1.2). The theta is part of the name so runs over
// different skews stay distinguishable in reports.
func ZipfProfile(theta float64) Profile {
	return Profile{
		Name: fmt.Sprintf("Zipf-%.2f", theta), ReadFraction: 0.2, Intensity: IntensityVeryHigh,
		BurstLen: 512, IntraGap: 150 * sim.Microsecond, IdleGap: 2 * sim.Millisecond,
		PagesMean: 1.5, PagesCap: 4, ZipfTheta: theta,
	}
}

// NewZipf builds a deterministic skewed generator over `space` logical pages
// emitting `total` requests — ZipfProfile(theta) under the standard seeded
// construction (same seed, same stream).
func NewZipf(theta float64, space int64, total int, seed uint64) (Generator, error) {
	return New(ZipfProfile(theta), space, total, seed)
}

// synthetic is the Profile-driven Generator.
type synthetic struct {
	p        Profile
	src      *rng.Source
	zipf     *rng.Zipf
	space    int64
	total    int
	emitted  int
	now      sim.Time
	burstRem int
	written  []int32 // pages written so far (read targets); every page fits, see New
	maxHist  int
	pages    pageCount
}

// New builds a generator over a logical space of `space` pages emitting
// `total` requests.
func New(p Profile, space int64, total int, seed uint64) (Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if space <= 0 || total <= 0 {
		return nil, fmt.Errorf("workload: space %d and total %d must be positive", space, total)
	}
	if space > math.MaxInt32 {
		// The read-target history holds page numbers as int32, like every
		// device's map (nand.MaxPages).
		return nil, fmt.Errorf("workload: space %d exceeds the %d pages a generator addresses", space, math.MaxInt32)
	}
	src := rng.New(seed)
	return &synthetic{
		p:       p,
		src:     src,
		zipf:    rng.NewZipf(src.Split(1), int(space), p.ZipfTheta),
		space:   space,
		total:   total,
		maxHist: 1 << 16,
		pages:   newPageCount(p.PagesMean-1, p.PagesCap),
	}, nil
}

// Name identifies the workload.
func (s *synthetic) Name() string { return s.p.Name }

// Next emits the next request.
func (s *synthetic) Next() (Request, bool) {
	if s.emitted >= s.total {
		return Request{}, false
	}
	if s.burstRem <= 0 {
		// Geometric burst length with the configured mean.
		s.burstRem = 1 + int(s.src.Exp(float64(s.p.BurstLen-1)))
		if s.emitted > 0 {
			s.now += sim.Time(s.src.Exp(float64(s.p.IdleGap)))
		}
	} else {
		s.now += sim.Time(s.src.Exp(float64(s.p.IntraGap)))
	}
	s.burstRem--

	pages := s.pages.draw(s.src.Float64NonZero())

	op := OpWrite
	if len(s.written) > 0 {
		r := s.src.Float64()
		switch {
		case r < s.p.ReadFraction:
			op = OpRead
		case r < s.p.ReadFraction+s.p.TrimFraction:
			op = OpTrim
		}
	}
	var page int64
	switch op {
	case OpRead:
		page = int64(s.written[s.src.Intn(len(s.written))])
	case OpTrim:
		// Delete a previously written extent and drop it from the read
		// candidates.
		i := s.src.Intn(len(s.written))
		page = int64(s.written[i])
		s.written[i] = s.written[len(s.written)-1]
		s.written = s.written[:len(s.written)-1]
	default:
		page = int64(s.zipf.Next())
		if len(s.written) < s.maxHist {
			s.written = append(s.written, int32(page))
		} else {
			s.written[s.src.Intn(s.maxHist)] = int32(page)
		}
	}
	if int64(pages) > s.space {
		// A tiny logical space (smaller than one request) must not push the
		// extent clamp below page 0.
		pages = int(s.space)
	}
	if page+int64(pages) > s.space {
		page = s.space - int64(pages)
	}
	s.emitted++
	return Request{Arrival: s.now, Op: op, Page: page, Pages: pages}, true
}
