//! A thread of its own for the small operations a run samples between
//! its timed operations: model loads for `setup_s` and the container's
//! read rounds. Their timings hinge on allocation speed, and glibc gives
//! each thread its own malloc arena, so on this thread they do not
//! depend on how the workload's input generation and main loop left the
//! main heap. It is started before the workload allocates anything.

use crate::pack_probe::ReadProbe;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;
use strudel::Strudel;

enum Job {
    Probe(Box<ReadProbe>),
    Round,
    TopUp,
    Loads(usize),
}

pub struct Side {
    jobs: Sender<Job>,
    done: Receiver<Vec<f64>>,
    thread: JoinHandle<Option<Box<ReadProbe>>>,
}

impl Side {
    pub fn start(model_path: PathBuf) -> Side {
        let (jobs, inbox) = channel();
        let (outbox, done) = channel();
        let thread = std::thread::spawn(move || {
            let mut probe: Option<Box<ReadProbe>> = None;
            for job in inbox {
                let reply = match job {
                    Job::Probe(p) => {
                        probe = Some(p);
                        Vec::new()
                    }
                    Job::Round => {
                        if let Some(p) = probe.as_mut() {
                            p.round(None);
                        }
                        Vec::new()
                    }
                    Job::TopUp => {
                        if let Some(p) = probe.as_mut() {
                            p.top_up(None);
                        }
                        Vec::new()
                    }
                    Job::Loads(n) => load_times(&model_path, n),
                };
                if outbox.send(reply).is_err() {
                    break;
                }
            }
            probe
        });
        Side { jobs, done, thread }
    }

    fn ask(&self, job: Job) -> Vec<f64> {
        self.jobs.send(job).expect("side thread runs");
        self.done.recv().expect("side thread answers")
    }

    /// Hand over the container whose read side the rounds measure.
    pub fn set_probe(&self, probe: ReadProbe) {
        self.ask(Job::Probe(Box::new(probe)));
    }

    /// One read round, if a container was handed over.
    pub fn round(&self) {
        self.ask(Job::Round);
    }

    /// Seconds of `n` `Strudel::load` calls, each model dropped at once.
    pub fn loads(&self, n: usize) -> Vec<f64> {
        self.ask(Job::Loads(n))
    }

    /// Run the read rounds still missing, stop the thread, and return
    /// the container's probe.
    pub fn finish(self) -> Option<ReadProbe> {
        self.ask(Job::TopUp);
        drop(self.jobs);
        self.thread
            .join()
            .expect("side thread finishes")
            .map(|p| *p)
    }
}

fn load_times(model_path: &PathBuf, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let started = Instant::now();
            let model = Strudel::load(model_path).expect("cached model file loads");
            let took = started.elapsed().as_secs_f64();
            drop(model);
            took
        })
        .collect()
}
