package main

// scale sizes every workload. fullScale is what the benchmark measures;
// smallScale keeps the same shapes small enough for unit tests.
type scale struct {
	ringNodes, ringRounds      int
	arRanks, arRounds, arLarge int
	incastPerSender            int
}

var (
	fullScale = scale{
		ringNodes: 1024, ringRounds: 2,
		arRanks: 16, arRounds: 240, arLarge: 8192,
		incastPerSender: 3000,
	}
	smallScale = scale{
		ringNodes: 8, ringRounds: 2,
		arRanks: 8, arRounds: 2, arLarge: 4096,
		incastPerSender: 100,
	}
)

func ringPlanOf(cfg config) *ringPlan {
	return newRingPlan(cfg.seed, cfg.scale.ringNodes, cfg.scale.ringRounds, cfg.corrupt)
}

func init() {
	ring := func(cfg config) (builder, error) { return buildRing(ringPlanOf(cfg)), nil }
	register(workload{name: "ring-composite", prepare: ring})
	register(workload{
		name:    "ring-replay",
		prepare: func(cfg config) (builder, error) { return buildReplay(ringPlanOf(cfg)), nil },
		live:    ring,
	})
	register(workload{
		name: "allreduce-lossy",
		prepare: func(cfg config) (builder, error) {
			sc := cfg.scale
			return buildAllreduce(newARPlan(cfg.seed, sc.arRanks, sc.arRounds, sc.arLarge, cfg.corrupt)), nil
		},
		collectives: true,
	})
	register(workload{
		name: "incast-tenants",
		prepare: func(cfg config) (builder, error) {
			return buildIncast(newIncastPlan(cfg.seed, cfg.scale.incastPerSender, cfg.corrupt)), nil
		},
	})
}
