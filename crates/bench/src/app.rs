//! The application catalogue: the paper's two kernels as the OS sees
//! them.
//!
//! The paper describes an application to the OS in three parts: a
//! bitstream (`FPGA_LOAD`), its mapped objects (`FPGA_MAP_OBJECT`) and
//! its scalar parameters (`FPGA_EXECUTE`). [`AppKind`] spells these out
//! once for adpcmdecode and IDEA; the figures, the serving workloads, the
//! fault sweep and the tests build their systems and requests from it.

use vcop::{
    Direction, ElemSize, Error, FallbackFn, MapHints, MultiSystem, Request, RequestObject,
    SoftwareFallback, System,
};
use vcop_apps::adpcm::codec as adpcm_codec;
use vcop_apps::adpcm::hw as adpcm_hw;
use vcop_apps::idea::cipher as idea_cipher;
use vcop_apps::idea::hw as idea_hw;
use vcop_apps::timing;
use vcop_fabric::bitstream::Bitstream;
use vcop_fabric::resources::Resources;
use vcop_fabric::DeviceProfile;
use vcop_imu::tlb::Asid;
use vcop_sim::time::{Frequency, SimTime};

/// The fixed key of the Fig. 9 IDEA runs.
const IDEA_KEY: idea_cipher::IdeaKey = idea_cipher::IdeaKey([1, 2, 3, 4, 5, 6, 7, 8]);

/// The two paper kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// IMA-ADPCM decode, core and IMU at 40 MHz.
    Adpcm,
    /// IDEA encryption, core at 6 MHz, IMU at 24 MHz.
    Idea,
}

/// One `FPGA_EXECUTE` of an application over a given input, with what a
/// correct run produces.
#[derive(Debug, Clone)]
pub struct Job {
    /// The input object, then the output object, in mapping order, and
    /// the scalar parameters.
    pub request: Request,
    /// The output object's bytes after a correct run.
    pub expect: Vec<u8>,
    /// Modeled pure-software time of the same work.
    pub sw: SimTime,
}

impl Job {
    /// Maps the request's objects on `system`, in order.
    ///
    /// # Errors
    ///
    /// Whatever `FPGA_MAP_OBJECT` rejects.
    pub fn map(&self, system: &mut System) -> Result<(), Error> {
        for o in self.request.objects.iter().cloned() {
            system.fpga_map_object(o.id, o.data, o.elem, o.direction, o.hints)?;
        }
        Ok(())
    }
}

impl AppKind {
    /// Tenant/arm label.
    pub fn name(self) -> &'static str {
        match self {
            AppKind::Adpcm => "adpcm",
            AppKind::Idea => "idea",
        }
    }

    /// Coprocessor clock.
    pub fn cp_freq(self) -> Frequency {
        match self {
            AppKind::Adpcm => timing::ADPCM_CORE_FREQ,
            AppKind::Idea => timing::IDEA_CORE_FREQ,
        }
    }

    /// IMU clock.
    pub fn imu_freq(self) -> Frequency {
        match self {
            AppKind::Adpcm => timing::ADPCM_IMU_FREQ,
            AppKind::Idea => timing::IDEA_IMU_FREQ,
        }
    }

    /// The application bitstream, targeted at `device`.
    pub fn bitstream(self, device: &DeviceProfile) -> Vec<u8> {
        let (name, resources, payload_kb) = match self {
            AppKind::Adpcm => ("adpcmdecode", Resources::new(1_100, 6_144), 48),
            AppKind::Idea => ("idea", Resources::new(3_600, 24_576), 96),
        };
        Bitstream::builder(name)
            .device(device.kind)
            .resources(resources)
            .core_clock(self.cp_freq())
            .synthetic_payload(payload_kb * 1024)
            .build()
            .to_bytes()
    }

    /// A fresh coprocessor instance.
    pub fn core(self) -> Box<dyn vcop::Coprocessor> {
        match self {
            AppKind::Adpcm => Box::new(adpcm_hw::AdpcmCoprocessor::new()),
            AppKind::Idea => Box::new(idea_hw::IdeaCoprocessor::new()),
        }
    }

    /// Configures this application on `system`: its `FPGA_LOAD`.
    /// Returns the configuration time.
    ///
    /// # Errors
    ///
    /// Whatever `FPGA_LOAD` rejects.
    pub fn load(self, system: &mut System) -> Result<SimTime, Error> {
        let bitstream = self.bitstream(system.device());
        system.fpga_load(&bitstream, self.core())
    }

    /// Admits a tenant `name` of weight 1 running this application to
    /// `sys`: its `FPGA_LOAD` on the shared fabric.
    ///
    /// # Errors
    ///
    /// Whatever admission rejects, such as a failed configuration.
    pub fn admit(self, sys: &mut MultiSystem, name: &str) -> Result<Asid, Error> {
        let bitstream = self.bitstream(sys.device());
        let (cp, imu) = (self.cp_freq(), self.imu_freq());
        sys.add_tenant(name, 1, cp, imu, &bitstream, self.core())
    }

    /// The request over `input` — ADPCM codes for adpcmdecode, plaintext
    /// for IDEA (encrypted with the Fig. 9 key) — with its expected
    /// output and software time from `vcop_apps::timing`.
    ///
    /// # Panics
    ///
    /// Panics if an IDEA input is not whole 8-byte blocks.
    pub fn job(self, input: Vec<u8>) -> Job {
        let (expect, sw) = match self {
            AppKind::Adpcm => {
                let (samples, sw) = timing::adpcm_sw(&input);
                (adpcm_codec::samples_to_bytes(&samples), sw)
            }
            AppKind::Idea => {
                let (ct, sw) = timing::idea_sw(&input, IDEA_KEY);
                (idea_cipher::pack_words(&ct), sw)
            }
        };
        Job {
            request: self.request(input),
            expect,
            sw,
        }
    }

    /// The request of [`AppKind::job`] alone: the input and output
    /// objects, in mapping order, and the scalar parameters.
    pub(crate) fn request(self, input: Vec<u8>) -> Request {
        let sequential = MapHints {
            sequential: true,
            ..Default::default()
        };
        let object = |id, data, elem, direction| RequestObject {
            id,
            data,
            elem,
            direction,
            hints: sequential,
        };
        let n = input.len();
        match self {
            AppKind::Adpcm => Request {
                objects: vec![
                    object(adpcm_hw::OBJ_INPUT, input, ElemSize::U8, Direction::In),
                    object(
                        adpcm_hw::OBJ_OUTPUT,
                        vec![0; n * 4],
                        ElemSize::U16,
                        Direction::Out,
                    ),
                ],
                params: vec![n as u32],
            },
            AppKind::Idea => {
                let mut params = vec![(n / idea_cipher::BLOCK_BYTES) as u32];
                params.extend(idea_cipher::expand_key(IDEA_KEY).map(u32::from));
                Request {
                    objects: vec![
                        object(
                            idea_hw::OBJ_INPUT,
                            idea_cipher::pack_words(&input),
                            ElemSize::U16,
                            Direction::In,
                        ),
                        object(
                            idea_hw::OBJ_OUTPUT,
                            vec![0; n],
                            ElemSize::U16,
                            Direction::Out,
                        ),
                    ],
                    params,
                }
            }
        }
    }

    /// [`AppKind::job`] over the unsalted synthetic input of `bytes`
    /// bytes the figures use: the ADPCM codes of `synthetic_pcm`, or
    /// `synthetic_plaintext`.
    pub fn synthetic_job(self, bytes: usize) -> Job {
        let input = match self {
            AppKind::Adpcm => adpcm_codec::encode(&adpcm_codec::synthetic_pcm(bytes * 2), &mut ()),
            AppKind::Idea => idea_cipher::synthetic_plaintext(bytes),
        };
        self.job(input)
    }
}

/// The adpcmdecode software reference as a registrable fallback: decodes
/// the first `params[0]` input bytes into the output object and charges
/// the reference's modeled time.
///
/// It fails, rather than panics, on missing parameters or objects, on a
/// length past the input, and on an output that is not four times that
/// length.
pub fn adpcm_fallback() -> Box<dyn SoftwareFallback> {
    Box::new(FallbackFn::new("adpcm-sw", |io, params| {
        let n = *params.first().ok_or("no length parameter")? as usize;
        let input = io.object(adpcm_hw::OBJ_INPUT).ok_or("input not mapped")?;
        let input = input.get(..n).ok_or("length exceeds the input")?.to_vec();
        let (samples, cpu) = timing::adpcm_sw(&input);
        let out = io
            .object_mut(adpcm_hw::OBJ_OUTPUT)
            .ok_or("output not mapped")?;
        if out.len() != 4 * n {
            return Err(format!("output of {} bytes for {n} input bytes", out.len()));
        }
        out.copy_from_slice(&adpcm_codec::samples_to_bytes(&samples));
        Ok(cpu)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcop::{FallbackIo, ObjectId};

    /// Objects in memory, indexed by object id.
    struct Buffers(Vec<Vec<u8>>);

    impl FallbackIo for Buffers {
        fn object(&self, id: ObjectId) -> Option<&[u8]> {
            self.0.get(usize::from(id.0)).map(Vec::as_slice)
        }

        fn object_mut(&mut self, id: ObjectId) -> Option<&mut [u8]> {
            self.0.get_mut(usize::from(id.0)).map(Vec::as_mut_slice)
        }
    }

    #[test]
    fn adpcm_fallback_rejects_bad_parameters_and_matches_the_reference() {
        let job = AppKind::Adpcm.synthetic_job(256);
        let input = job.request.objects[0].data.clone();
        let n = input.len();
        let fallback = adpcm_fallback();

        let mut io = Buffers(vec![input.clone(), vec![0; 4 * n]]);
        assert!(fallback.run(&mut io, &[]).is_err(), "no length");
        assert!(
            fallback.run(&mut io, &[n as u32 + 1]).is_err(),
            "length past the input"
        );
        let mut short = Buffers(vec![input, vec![0; 4 * n - 2]]);
        assert!(
            fallback.run(&mut short, &[n as u32]).is_err(),
            "output not 4x the input"
        );

        assert_eq!(fallback.run(&mut io, &[n as u32]), Ok(job.sw));
        assert_eq!(io.0[1], job.expect);
    }
}
