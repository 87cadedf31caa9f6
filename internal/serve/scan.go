package serve

import (
	"bytes"

	"magma/internal/strictjson"
	"magma/internal/workload"
)

// The key orders of OptimizeRequest, GenerateSpec and RequestOptions, as
// their struct tags give them.
var (
	requestKeys  = []string{"workload", "generate", "platform", "bw", "options", "timeout_ms"}
	generateKeys = []string{"task", "num_jobs", "group_size", "seed"}
	optionKeys   = []string{"mapper", "objective", "budget_per_group", "seed", "warm_start"}
)

// scanRequest reads body in the spelling json.Marshal gives an
// OptimizeRequest (see package strictjson): fields in struct order, an
// inline workload that workload.ScanJSON accepts, and a bw that is a
// whole number. It reports false at the first byte outside that
// spelling; what it accepts decodes to the value encoding/json gives,
// sharing no memory with body.
func scanRequest(body []byte) (OptimizeRequest, bool) {
	var req OptimizeRequest
	s := strictjson.New(body)
	ok := s.Object(requestKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			from := s.Pos()
			if _, ok = workload.ScanJSON(s); ok {
				req.Workload = bytes.Clone(s.Since(from))
			}
		case 1:
			req.Generate = new(GenerateSpec)
			ok = scanGenerate(s, req.Generate)
		case 2:
			req.Platform, ok = s.String()
		case 3:
			var bw int64
			bw, ok = s.Int64()
			req.BW = float64(bw)
		case 4:
			ok = scanOptions(s, &req.Options)
		case 5:
			req.TimeoutMS, ok = s.Int64()
		}
		return ok
	})
	return req, ok && s.End()
}

func scanGenerate(s *strictjson.Scanner, g *GenerateSpec) bool {
	return s.Object(generateKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			g.Task, ok = s.String()
		case 1:
			g.NumJobs, ok = s.Int()
		case 2:
			g.GroupSize, ok = s.Int()
		case 3:
			g.Seed, ok = s.Int64()
		}
		return ok
	})
}

func scanOptions(s *strictjson.Scanner, o *RequestOptions) bool {
	return s.Object(optionKeys, func(i int) bool {
		var ok bool
		switch i {
		case 0:
			o.Mapper, ok = s.String()
		case 1:
			o.Objective, ok = s.String()
		case 2:
			o.BudgetPerGroup, ok = s.Int()
		case 3:
			o.Seed, ok = s.Int64()
		case 4:
			o.WarmStart, ok = s.Bool()
		}
		return ok
	})
}
