//! Baseline execution models: the "typical coprocessor" of the paper.
//!
//! Fig. 9 compares three versions of IDEA: pure software, a *normal
//! coprocessor* — manually managed, no OS involvement, all data resident
//! in the dual-port memory (which is why its bars read "exceeds available
//! memory" beyond 8 KB of input) — and the VIM-based coprocessor. The
//! pure-software baseline comes straight from `vcop-apps::timing`; this
//! module provides the normal-coprocessor runner.
//!
//! The normal coprocessor uses the *same* portable core FSM. Its
//! interface simply answers every access directly from statically placed
//! buffers with a one-cycle (next-edge) latency: the programmer resolved
//! all addressing at design time, so there is no translation and no
//! stall beyond the memory itself. Data still has to be copied in and
//! out by the application (single transfers: a `memcpy` to a mapped
//! region, no kernel bounce).

use std::collections::BTreeMap;

use vcop_fabric::port::{AccessKind, Coprocessor, CoprocessorPort, ObjectId, PortLink};
use vcop_imu::imu::ElemSize;
use vcop_sim::time::Frequency;
use vcop_vim::cost::{OsCostModel, TransferMode};
use vcop_vim::object::Direction;

use crate::error::Error;
use crate::report::BaselineReport;

/// A statically placed buffer of the typical-coprocessor version.
#[derive(Debug, Clone)]
pub struct TypicalObject {
    /// Buffer contents (inputs) or initial contents (outputs).
    pub data: Vec<u8>,
    /// Element size the core indexes with.
    pub elem: ElemSize,
    /// Transfer direction (decides which copies the programmer pays).
    pub direction: Direction,
}

impl TypicalObject {
    /// Convenience constructor.
    pub fn new(data: Vec<u8>, elem: ElemSize, direction: Direction) -> Self {
        TypicalObject {
            data,
            elem,
            direction,
        }
    }
}

/// Configuration of a typical-coprocessor run.
#[derive(Debug, Clone, Copy)]
pub struct TypicalConfig {
    /// Coprocessor clock.
    pub cp_freq: Frequency,
    /// Dual-port memory capacity the data must fit (16 KB on the EPXA1).
    pub dpram_bytes: usize,
    /// Execution edge budget.
    pub edge_budget: u64,
}

impl TypicalConfig {
    /// EPXA1 defaults at the given coprocessor clock.
    pub fn epxa1(cp_freq: Frequency) -> Self {
        TypicalConfig {
            cp_freq,
            dpram_bytes: 16 * 1024,
            edge_budget: crate::engine::DEFAULT_EDGE_BUDGET,
        }
    }
}

/// Runs `core` as a manually-managed coprocessor over `objects`.
/// Returns the final buffers and the time report.
///
/// # Errors
///
/// * [`Error::ExceedsMemory`] if inputs + outputs + parameters do not
///   fit the dual-port memory simultaneously — the Fig. 9 condition;
/// * [`Error::Timeout`] if the FSM does not finish in budget.
pub fn run_typical(
    core: &mut dyn Coprocessor,
    mut objects: BTreeMap<u8, TypicalObject>,
    params: &[u32],
    config: TypicalConfig,
) -> Result<(BTreeMap<u8, Vec<u8>>, BaselineReport), Error> {
    // Scalars travel in registers in the manual version (there is no
    // parameter page without an IMU), so only the data buffers must fit.
    let required: usize = objects.values().map(|o| o.data.len()).sum::<usize>();
    if required > config.dpram_bytes {
        return Err(Error::ExceedsMemory {
            required,
            available: config.dpram_bytes,
        });
    }

    // Programmer-managed copies: inputs in before start, outputs back
    // after completion. Single transfers over the AHB.
    let mut cost = OsCostModel::epxa1().with_transfer(TransferMode::Single);
    let mut sw = vcop_sim::time::SimTime::ZERO;
    let mut user_addr = 0x10000usize;
    for o in objects.values() {
        if o.direction.loads() {
            sw += cost.page_move_time(user_addr, o.data.len());
        }
        user_addr += o.data.len().next_multiple_of(64);
    }

    core.reset();
    let mut port = CoprocessorPort::new(1);
    PortLink::new(&mut port).set_start(true);

    // Direct interface: an access issued at edge E is answered at E+1.
    let mut pending_timer: Option<u32> = None;
    let mut cp_cycles = 0u64;
    let mut finished = false;
    for _ in 0..config.edge_budget {
        // Serve a matured access before the core's edge so the data is
        // consumable this cycle.
        {
            let mut link = PortLink::new(&mut port);
            if let Some(timer) = pending_timer {
                if timer == 0 {
                    let req = *link.pending_request().expect("timer implies request");
                    let data = serve_direct(&mut objects, params, &req)?;
                    link.complete(data);
                    pending_timer = None;
                } else {
                    pending_timer = Some(timer - 1);
                }
            }
        }

        core.step(&mut port);
        cp_cycles += 1;

        let mut link = PortLink::new(&mut port);
        if pending_timer.is_none() && link.pending_request().is_some() {
            pending_timer = Some(0);
        }
        let _ = link.take_param_done();
        if link.take_fin() {
            finished = true;
            break;
        }
    }
    if !finished {
        return Err(Error::Timeout {
            budget: config.edge_budget,
        });
    }

    let mut user_addr = 0x10000usize;
    for o in objects.values() {
        if o.direction.stores() {
            sw += cost.page_move_time(user_addr, o.data.len());
        }
        user_addr += o.data.len().next_multiple_of(64);
    }

    let report = BaselineReport {
        hw: config.cp_freq.cycles(cp_cycles),
        sw,
        cp_cycles,
    };
    Ok((
        objects.into_iter().map(|(k, o)| (k, o.data)).collect(),
        report,
    ))
}

fn serve_direct(
    objects: &mut BTreeMap<u8, TypicalObject>,
    params: &[u32],
    req: &vcop_fabric::port::AccessRequest,
) -> Result<u32, Error> {
    if req.obj == ObjectId::PARAM {
        return Ok(params.get(req.index as usize).copied().unwrap_or(0));
    }
    let o = objects
        .get_mut(&req.obj.0)
        .ok_or(Error::Vim(vcop_vim::VimError::UnknownObject(req.obj)))?;
    let width = o.elem.bytes();
    let at = req.index as usize * width;
    if at + width > o.data.len() {
        return Err(Error::Vim(vcop_vim::VimError::OutOfBounds {
            obj: req.obj,
            vpage: (at / 2048) as u32,
            pages: (o.data.len().div_ceil(2048)) as u32,
        }));
    }
    match req.kind {
        AccessKind::Read => Ok(match width {
            1 => u32::from(o.data[at]),
            2 => u32::from(u16::from_le_bytes([o.data[at], o.data[at + 1]])),
            _ => u32::from_le_bytes(o.data[at..at + 4].try_into().expect("width checked")),
        }),
        AccessKind::Write => {
            match width {
                1 => o.data[at] = req.data as u8,
                2 => o.data[at..at + 2].copy_from_slice(&(req.data as u16).to_le_bytes()),
                _ => o.data[at..at + 4].copy_from_slice(&req.data.to_le_bytes()),
            }
            Ok(req.data)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop_apps::vecadd::{VecAddCoprocessor, OBJ_A, OBJ_B, OBJ_C};
    use vcop_sim::time::SimTime;

    fn u32s_to_bytes(v: &[u32]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn bytes_to_u32s(v: &[u8]) -> Vec<u32> {
        v.chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    fn objects(n: usize) -> BTreeMap<u8, TypicalObject> {
        let a: Vec<u32> = (0..n as u32).collect();
        let b: Vec<u32> = (0..n as u32).map(|x| x * 3).collect();
        let mut m = BTreeMap::new();
        m.insert(
            OBJ_A.0,
            TypicalObject::new(u32s_to_bytes(&a), ElemSize::U32, Direction::In),
        );
        m.insert(
            OBJ_B.0,
            TypicalObject::new(u32s_to_bytes(&b), ElemSize::U32, Direction::In),
        );
        m.insert(
            OBJ_C.0,
            TypicalObject::new(vec![0u8; n * 4], ElemSize::U32, Direction::Out),
        );
        m
    }

    #[test]
    fn vecadd_runs_and_is_correct() {
        let mut core = VecAddCoprocessor::new();
        let n = 256usize;
        let (out, report) = run_typical(
            &mut core,
            objects(n),
            &[n as u32],
            TypicalConfig::epxa1(Frequency::from_mhz(40)),
        )
        .unwrap();
        let c = bytes_to_u32s(&out[&OBJ_C.0]);
        let expect: Vec<u32> = (0..n as u32).map(|x| x + x * 3).collect();
        assert_eq!(c, expect);
        assert!(report.hw > SimTime::ZERO);
        assert!(report.sw > SimTime::ZERO);
        assert!(report.cp_cycles > n as u64 * 3);
    }

    #[test]
    fn memory_limit_enforced() {
        let mut core = VecAddCoprocessor::new();
        // 3 × 2048 u32 = 24 KB > 16 KB.
        let err = run_typical(
            &mut core,
            objects(2048),
            &[2048],
            TypicalConfig::epxa1(Frequency::from_mhz(40)),
        )
        .unwrap_err();
        assert!(matches!(err, Error::ExceedsMemory { .. }));
    }

    #[test]
    fn timeout_detected() {
        let mut core = VecAddCoprocessor::new();
        let config = TypicalConfig {
            edge_budget: 16,
            ..TypicalConfig::epxa1(Frequency::from_mhz(40))
        };
        let err = run_typical(&mut core, objects(64), &[64], config).unwrap_err();
        assert!(matches!(err, Error::Timeout { .. }));
    }

    #[test]
    fn direct_interface_is_faster_per_access_than_translated() {
        // The typical coprocessor answers in one edge; through the IMU
        // the same FSM needs three. Check the cycle counts reflect it.
        let mut core = VecAddCoprocessor::new();
        let n = 64usize;
        let (_, report) = run_typical(
            &mut core,
            objects(n),
            &[n as u32],
            TypicalConfig::epxa1(Frequency::from_mhz(40)),
        )
        .unwrap();
        // ~6-7 edges per element (3 accesses × 2 edges + bookkeeping).
        assert!(
            report.cp_cycles < n as u64 * 9,
            "cp_cycles {}",
            report.cp_cycles
        );
    }
}
