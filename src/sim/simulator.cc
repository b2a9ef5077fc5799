#include "src/sim/simulator.h"

#include "src/base/log.h"

namespace cinder {

Simulator::Simulator(SimConfig config)
    : config_(config),
      battery_(config.model.battery_capacity),
      rng_(config.seed),
      radio_(&config_.model, &rng_),
      probe_(this, config.probe_interval) {
  // The battery root reserve: the root of the resource consumption graph.
  // Decay-exempt (leaks flow INTO it) and debt-free.
  Reserve* root_reserve = kernel_.Create<Reserve>(kernel_.root_container_id(), Label(Level::k1),
                                                  "battery", ResourceKind::kEnergy);
  root_reserve->set_decay_exempt(true);
  root_reserve->Deposit(ToQuantity(config_.model.battery_capacity));
  battery_reserve_ = root_reserve->id();

  tap_engine_ = std::make_unique<TapEngine>(&kernel_, battery_reserve_);
  tap_engine_->decay().enabled = config_.decay_enabled;
  tap_engine_->decay().half_life = config_.decay_half_life;
  tap_engine_->decay().to_shard_root = config_.exec.decay_to_shard_root;
  tap_engine_->split().min_entries = config_.exec.tap_split_threshold;
  tap_engine_->split().ranges = config_.exec.tap_split_ranges;
  tap_engine_->set_cut_threshold(config_.exec.shard_cut_threshold);
  if (config_.exec.tap_workers >= 1) {
    shard_executor_ = std::make_unique<ShardExecutor>(config_.exec.tap_workers);
    tap_engine_->EnableSharding(shard_executor_.get());
  } else if (config_.exec.decay_to_shard_root) {
    // Shard sinks are per-component; run sharded but serial in the caller.
    tap_engine_->EnableSharding(nullptr);
  }
  scheduler_ = std::make_unique<EnergyAwareScheduler>(&kernel_);

  // Telemetry: one domain for the whole embedding — the engine flushes a
  // frame per tap batch, the scheduler/syscalls/executor emit into it, and
  // Step keeps its clock on sim time.
  telemetry_.Configure(config_.telemetry);
  if (telemetry_.enabled()) {
    kernel_.set_trace_domain(&telemetry_);
    tap_engine_->set_telemetry(&telemetry_);
    scheduler_->set_telemetry(&telemetry_);
    if (shard_executor_ != nullptr) {
      shard_executor_->set_telemetry(&telemetry_);
    }
    if (!config_.telemetry.stream_path.empty()) {
      // Stream the run to disk as it executes; the domain then retains
      // nothing (unless retain_with_sinks) and telemetry memory stays
      // O(rings) however long the run is. ~Simulator finalizes the file.
      stream_sink_ = std::make_unique<FileStreamSink>();
      FileStreamSinkOptions opts;
      opts.fsync_every_frames = config_.telemetry.stream_fsync_frames;
      std::string err;
      if (stream_sink_->Open(config_.telemetry.stream_path, opts, &err)) {
        telemetry_.AddSink(stream_sink_.get());
      } else {
        CINDER_WLOG() << "telemetry stream disabled: " << err;
        stream_sink_.reset();
      }
    }
  }

  // The boot thread: a convenience principal for setup syscalls. It draws
  // from the battery reserve directly and is never scheduled (no body).
  Thread* boot = kernel_.Create<Thread>(kernel_.root_container_id(), Label(Level::k1), "boot");
  boot->set_active_reserve(battery_reserve_);
  boot_thread_ = boot->id();

  next_tap_batch_ = now_ + config_.tap_batch;

  has_body_fn_ = [this](ObjectId id) { return bodies_.find(id) != bodies_.end(); };
  const Duration q = config_.quantum;
  cpu_memory_power_ = Power::Microwatts(
      static_cast<int64_t>(static_cast<double>(config_.model.cpu_active.uw()) *
                           (1.0 + config_.model.cpu_memory_premium)));
  baseline_quantum_energy_ = config_.model.idle_baseline * q;
  backlight_quantum_energy_ = config_.model.backlight * q;
  cpu_quantum_estimate_ = config_.model.cpu_active * q;
  cpu_quantum_estimate_memory_ = Energy::Nanojoules(
      static_cast<int64_t>(static_cast<double>(cpu_quantum_estimate_.nj()) *
                           (1.0 + config_.model.cpu_memory_premium)));
  baseline_quantum_quantity_ = ToQuantity(baseline_quantum_energy_);
}

Simulator::~Simulator() = default;

Simulator::Process Simulator::CreateProcess(const std::string& name, ObjectId parent,
                                            const Label& label) {
  if (parent == kInvalidObjectId) {
    parent = kernel_.root_container_id();
  }
  Process p;
  Container* c = kernel_.Create<Container>(parent, label, name);
  p.container = c->id();
  AddressSpace* as = kernel_.Create<AddressSpace>(p.container, label, name + "/as");
  p.address_space = as->id();
  Thread* t = kernel_.Create<Thread>(p.container, label, name + "/main");
  t->set_home_address_space(p.address_space);
  p.thread = t->id();
  scheduler_->AddThread(p.thread);
  return p;
}

ObjectId Simulator::CreateThreadIn(const Process& proc, const std::string& name,
                                   const Label& label) {
  Thread* t = kernel_.Create<Thread>(proc.container, label, name);
  t->set_home_address_space(proc.address_space);
  scheduler_->AddThread(t->id());
  return t->id();
}

void Simulator::AttachBody(ObjectId thread, std::unique_ptr<ThreadBody> body) {
  bodies_[thread] = std::move(body);
  // The bodies map is the scheduler's eligibility filter and no epoch covers
  // it; a plan built before this attach would keep skipping the thread.
  scheduler_->InvalidatePlan();
}

void Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  callbacks_.push(TimedCallback{t, callback_seq_++, std::move(fn)});
}

void Simulator::RunTimedCallbacks() {
  while (!callbacks_.empty() && callbacks_.top().when <= now_) {
    auto fn = callbacks_.top().fn;
    callbacks_.pop();
    fn();
  }
}

void Simulator::RadioTransmit(int64_t bytes) {
  pending_data_energy_ += radio_.OnPacket(now_, bytes);
}

void Simulator::Step() {
  StepHead();
  StepQuantum(nullptr);
}

void Simulator::StepHead() {
  telemetry_.set_time_us(now_.us());

  RunTimedCallbacks();

  // Tap flow batches (and the global decay) run on their own period.
  if (now_ >= next_tap_batch_) {
    const Quantity flow_before = tap_engine_->total_tap_flow() + tap_engine_->total_decay_flow();
    tap_engine_->RunBatch(config_.tap_batch);
    last_batch_moved_flow_ =
        tap_engine_->total_tap_flow() + tap_engine_->total_decay_flow() != flow_before;
    next_tap_batch_ = now_ + config_.tap_batch;
  }
}

void Simulator::StepQuantum(MeterBatch* mb) {
  const Duration q = config_.quantum;
  telemetry_.set_time_us(now_.us());

  // Energy-aware scheduling: one quantum for the chosen thread. A live run
  // plan replays the decision with no scan; otherwise (or once an epoch
  // guard cuts the plan) the full PickNext path decides. Threads without an
  // attached body are pure principals (service anchors, setup helpers);
  // they never occupy CPU quanta.
  ObjectId tid;
  if (!scheduler_->TryPlannedPick(now_, &tid)) {
    tid = scheduler_->PickNext(now_, has_body_fn_);
  }
  Thread* t = tid != kInvalidObjectId ? kernel_.LookupTyped<Thread>(tid) : nullptr;
  auto body_it = bodies_.find(tid);
  // Keep a raw pointer, not the iterator: a body that attaches new bodies
  // during its quantum can rehash the map, which invalidates iterators but
  // not the pointed-to elements.
  ThreadBody* body = body_it != bodies_.end() ? body_it->second.get() : nullptr;
  const bool runs = t != nullptr && body != nullptr;
  cpu_busy_last_quantum_ = runs;
  last_run_thread_ = runs ? tid : kInvalidObjectId;
  last_memory_heavy_ = false;
  if (runs) {
    QuantumContext ctx{*this, kernel_, *t, now_, q};
    body->OnQuantum(ctx);
    t->IncrementQuantaRun();
    last_memory_heavy_ = body->memory_intensive();
    // Bill the quantum even if the body blocked midway: the CPU was granted.
    ChargeQuantum(*t, last_memory_heavy_);
  }

  // Devices advance and the battery drains true energy.
  radio_.Tick(now_);
  Power true_power = TrueInstantaneousPower();
  Energy true_draw = true_power * q + pending_data_energy_;
  if (pending_data_energy_.IsPositive()) {
    radio_active_energy_ += pending_data_energy_;
  }
  pending_data_energy_ = Energy::Zero();
  battery_.Drain(true_draw);
  if (radio_.IsAwake()) {
    radio_.AccumulateAwake(q);
    radio_active_energy_ += true_power * q;
  }

  // Kernel-side estimates for platform components (billed to the system; the
  // CPU estimate was billed per-thread in ChargeQuantum and netd bills radio
  // usage to callers). In a batched stretch the per-quantum records coalesce
  // into counts and flush as one record per component at stretch end.
  if (mb != nullptr) {
    ++mb->baseline_quanta;
    mb->backlight_quanta += backlight_on_ ? 1 : 0;
  } else {
    meter_.Record(Component::kBaseline, kSystemPrincipal, baseline_quantum_energy_);
    if (backlight_on_) {
      meter_.Record(Component::kBacklight, kSystemPrincipal, backlight_quantum_energy_);
    }
  }

  // The battery reserve (rights graph root) tracks baseline drain so the
  // spendable-rights view stays aligned with physical reality. Billed
  // through the cached level cell: the run plan already simulated this
  // drain, so it must not count as an out-of-band reserve op.
  if (Reserve* root = battery_reserve(); root != nullptr) {
    root->ConsumeUpToAt(battery_cell_, baseline_quantum_quantity_);
  }

  probe_.OnTick(now_);
  now_ += q;
}

void Simulator::FlushMeterBatch(const MeterBatch& mb) {
  if (mb.baseline_quanta > 0) {
    meter_.Record(Component::kBaseline, kSystemPrincipal,
                  baseline_quantum_energy_ * mb.baseline_quanta);
  }
  if (mb.backlight_quanta > 0) {
    meter_.Record(Component::kBacklight, kSystemPrincipal,
                  backlight_quantum_energy_ * mb.backlight_quanta);
  }
}

void Simulator::ChargeQuantum(Thread& t, bool memory_heavy) {
  // The estimate assumes the worst-case instruction mix (the Dream has no
  // counters to tell), so estimated == worst case; the true draw honors the
  // body's actual mix.
  const Energy estimate = memory_heavy ? cpu_quantum_estimate_memory_ : cpu_quantum_estimate_;
  Energy billed = scheduler_->ChargeCpu(t, estimate);
  meter_.Record(Component::kCpu, t.id(), billed);
}

Power Simulator::TrueInstantaneousPower() const {
  Power p = config_.model.idle_baseline;
  if (backlight_on_) {
    p += config_.model.backlight;
  }
  if (cpu_busy_last_quantum_) {
    p += last_memory_heavy_ ? cpu_memory_power_ : config_.model.cpu_active;
  }
  p += radio_.ExtraPower();
  for (const auto& source : extra_power_sources_) {
    p += source();
  }
  return p;
}

void Simulator::Run(Duration d) { RunUntil(now_ + d); }

void Simulator::RunUntil(SimTime t) {
  const uint32_t plan_quanta = config_.exec.sched_plan_quanta;
  const int64_t q_us = config_.quantum.us();
  if (plan_quanta == 0 || q_us <= 0) {
    while (now_ < t) {
      Step();
    }
    return;
  }
  // Batched stepping: one head (timed callbacks + tap batch) per stretch,
  // then quanta in a tight loop. A stretch ends at the run horizon, the next
  // tap batch, or as soon as a timed callback becomes due — so heads run at
  // exactly the times the plain Step loop would have run them, and results
  // are bit-identical (golden-pinned) at any K.
  SchedPlanParams params;
  params.quantum = config_.quantum;
  const Quantity c_plain = ToQuantity(cpu_quantum_estimate_);
  const Quantity c_memory = ToQuantity(cpu_quantum_estimate_memory_);
  params.cost_lo = c_plain < c_memory ? c_plain : c_memory;
  params.cost_hi = c_plain < c_memory ? c_memory : c_plain;
  params.baseline_drain = baseline_quantum_quantity_;
  params.eligible = &has_body_fn_;
  while (now_ < t) {
    StepHead();
    MeterBatch mb;
    bool stretch_done = false;
    bool built = false;
    do {
      // (Re)build at most one plan per stretch, the first time no valid
      // plan remains; if a guard cuts it mid-stretch, the remaining quanta
      // fall back to PickNext and the next stretch rebuilds.
      if (!built && !scheduler_->PlanCurrent()) {
        built = true;
        // Horizon: never past the run end, and when the last tap batch
        // moved flow (so the next one will cut the plan anyway), not past
        // the next batch boundary either. Sleeper deadlines cap it further
        // inside BuildPlan.
        uint64_t horizon = static_cast<uint64_t>((t.us() - now_.us() + q_us - 1) / q_us);
        if (last_batch_moved_flow_ && next_tap_batch_ > now_) {
          const uint64_t to_batch =
              static_cast<uint64_t>((next_tap_batch_.us() - now_.us() + q_us - 1) / q_us);
          horizon = to_batch < horizon ? to_batch : horizon;
        }
        params.max_quanta =
            static_cast<uint32_t>(horizon < plan_quanta ? horizon : plan_quanta);
        params.baseline_reserve = battery_reserve();
        scheduler_->BuildPlan(now_, params);
      }
      StepQuantum(&mb);
      stretch_done = now_ >= t || now_ >= next_tap_batch_ ||
                     (!callbacks_.empty() && callbacks_.top().when <= now_);
    } while (!stretch_done);
    FlushMeterBatch(mb);
  }
}

}  // namespace cinder
